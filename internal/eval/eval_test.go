package eval

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/schemes/registry"
)

func findRow(t *testing.T, tbl *Table, name string) []string {
	t.Helper()
	for _, row := range tbl.Rows {
		if row[0] == name {
			return row
		}
	}
	t.Fatalf("table %s has no row %q", tbl.ID, name)
	return nil
}

func seriesPoints(t *testing.T, f *Figure, name string) []Point {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s.Points
		}
	}
	t.Fatalf("figure %s has no series %q", f.ID, name)
	return nil
}

func TestTable1Renders(t *testing.T) {
	tbl := Table1PropertyMatrix()
	if len(tbl.Rows) != 12 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"s-arp", "dai", "arpwatch", "port-security", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 13 {
		t.Fatalf("csv lines = %d", lines)
	}
	recs := Table1Recommendations()
	if len(recs.Rows) != 4 {
		t.Fatalf("recommendation rows = %d", len(recs.Rows))
	}
}

func TestTable2MatchesPolicyClaims(t *testing.T) {
	tbl := Table2PolicyMatrix()
	// Columns: policy, gratuitous, unsolicited-reply, request-spoof, reply-race.
	naive := findRow(t, tbl, "naive")
	for i := 1; i <= 4; i++ {
		if !strings.HasPrefix(naive[i], "✓") {
			t.Errorf("naive col %d = %q, want create-success", i, naive[i])
		}
	}
	solicited := findRow(t, tbl, "solicited-only")
	for i := 1; i <= 3; i++ {
		if solicited[i] != "✗/✗" {
			t.Errorf("solicited-only col %d = %q, want full block", i, solicited[i])
		}
	}
	if solicited[4] != "✓/✓" {
		t.Errorf("solicited-only race = %q, want success (the kernel patch cannot stop races)", solicited[4])
	}
	noOver := findRow(t, tbl, "no-overwrite")
	if !strings.HasSuffix(noOver[2], "/✗") {
		t.Errorf("no-overwrite unsolicited = %q, want overwrite blocked", noOver[2])
	}
	if !strings.HasPrefix(noOver[2], "✓") {
		t.Errorf("no-overwrite unsolicited = %q, want creation allowed", noOver[2])
	}
	replyOnly := findRow(t, tbl, "reply-only")
	if replyOnly[3] != "✗/✗" {
		t.Errorf("reply-only request-spoof = %q, want blocked", replyOnly[3])
	}
}

func TestTable3DetectionShape(t *testing.T) {
	tbl := Table3Detection(3)
	if len(tbl.Rows) != len(DetectionSchemes()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Every scheme must detect the MITM in every trial (TPR 1.00): the
	// attacked binding was long established before the attack.
	for _, row := range tbl.Rows {
		if row[1] != "1.00" {
			t.Errorf("%s TPR = %s, want 1.00", row[0], row[1])
		}
	}
	// arpwatch pays churn FPs; the probing schemes must not.
	aw := findRow(t, tbl, "arpwatch")
	if aw[2] == "0.00" {
		t.Error("arpwatch should false-positive on churn")
	}
	for _, scheme := range []string{"active-probe", "hybrid-guard", "middleware"} {
		row := findRow(t, tbl, scheme)
		if row[2] != "0.00" {
			t.Errorf("%s FP/churn = %s, want 0.00", scheme, row[2])
		}
	}
}

func TestFigure1CDFShape(t *testing.T) {
	f := Figure1LatencyCDF(3)
	for _, scheme := range DetectionSchemes() {
		pts := seriesPoints(t, f, scheme)
		if len(pts) == 0 {
			t.Fatalf("%s has no CDF points", scheme)
		}
		last := pts[len(pts)-1]
		if last.Y != 1.0 {
			t.Errorf("%s CDF does not reach 1: %v", scheme, last)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Y < pts[i-1].Y || pts[i].X < pts[i-1].X {
				t.Fatalf("%s CDF not monotone", scheme)
			}
		}
	}
}

func TestFigure2RaceShape(t *testing.T) {
	f := Figure2RaceWindow(10)
	// Solicited-only (first answer wins): sigmoid from ≈1 to ≈0.
	sol := seriesPoints(t, f, "solicited-only")
	if len(sol) != 11 {
		t.Fatalf("points = %d", len(sol))
	}
	if sol[0].Y < 0.8 {
		t.Errorf("solicited-only at delay 0: success = %v, want ≈1", sol[0].Y)
	}
	if sol[len(sol)-1].Y > 0.2 {
		t.Errorf("solicited-only at delay 5ms: success = %v, want ≈0", sol[len(sol)-1].Y)
	}
	// Naive (last unsolicited writer wins): flat at ≈1 — racing is
	// unnecessary against an unhardened cache.
	for _, p := range seriesPoints(t, f, "naive") {
		if p.Y < 0.8 {
			t.Errorf("naive at delay %vms: success = %v, want ≈1", p.X, p.Y)
		}
	}
}

func TestTable4OverheadShape(t *testing.T) {
	tbl, err := Table4Overhead(5)
	if err != nil {
		t.Fatal(err)
	}
	bytesOf := func(name string) float64 {
		row := findRow(t, tbl, name)
		var v float64
		if _, err := fmtSscan(row[1], &v); err != nil {
			t.Fatalf("parse %q: %v", row[1], err)
		}
		return v
	}
	latencyOf := func(name string) time.Duration {
		row := findRow(t, tbl, name)
		d, err := time.ParseDuration(row[2])
		if err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		return d
	}
	plain, sarpB, tarpB, mw := bytesOf("plain-arp"), bytesOf("s-arp"), bytesOf("tarp"), bytesOf("middleware")
	if !(sarpB > plain) || !(tarpB > plain) {
		t.Errorf("crypto schemes must cost more wire bytes: plain=%v sarp=%v tarp=%v", plain, sarpB, tarpB)
	}
	if !(mw > plain) {
		t.Errorf("middleware probes must cost extra bytes: plain=%v mw=%v", plain, mw)
	}
	if latencyOf("middleware") < 300*time.Millisecond {
		t.Errorf("middleware latency %v should include the quarantine window", latencyOf("middleware"))
	}
	if latencyOf("s-arp") <= latencyOf("plain-arp") {
		t.Errorf("s-arp latency should exceed plain: %v vs %v", latencyOf("s-arp"), latencyOf("plain-arp"))
	}
}

func TestFigure3ScalingShape(t *testing.T) {
	f := Figure3Scaling([]int{4, 8, 16}, 30*time.Second)
	for _, scheme := range []string{"plain-arp", "s-arp", "tarp", "middleware"} {
		pts := seriesPoints(t, f, scheme)
		if len(pts) != 3 {
			t.Fatalf("%s points = %d", scheme, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Y <= pts[i-1].Y {
				t.Errorf("%s load must grow with LAN size: %+v", scheme, pts)
			}
		}
	}
	// Crypto schemes sit above plain at every size.
	plain := seriesPoints(t, f, "plain-arp")
	for i, p := range seriesPoints(t, f, "s-arp") {
		if p.Y <= plain[i].Y {
			t.Errorf("s-arp should exceed plain at n=%v", p.X)
		}
	}
}

func TestTable5AblationShape(t *testing.T) {
	tbl := Table5Ablation(2)
	base := findRow(t, tbl, "no guard (baseline)")
	if base[1] != "0/2" || base[4] != "2/2" {
		t.Errorf("baseline row wrong: %v", base)
	}
	passive := findRow(t, tbl, "passive only")
	if passive[1] != "2/2" || passive[2] != "0/2" {
		t.Errorf("passive-only should detect but never confirm: %v", passive)
	}
	full := findRow(t, tbl, "passive + active")
	if full[1] != "2/2" || full[2] != "2/2" {
		t.Errorf("full guard should detect and confirm: %v", full)
	}
	if full[4] != "2/2" {
		t.Errorf("detection alone must not de-poison the victim: %v", full)
	}
	protected := findRow(t, tbl, "passive + active + host protection")
	if protected[4] != "0/2" {
		t.Errorf("host protection should keep the victim clean: %v", protected)
	}
}

func TestFigure5CamFloodShape(t *testing.T) {
	f := Figure5CamFlood([]float64{0, 2000}, 10*time.Second)
	open := seriesPoints(t, f, "unprotected")
	if open[0].Y > 0.05 {
		t.Errorf("no flood should mean no eavesdropping: %v", open[0])
	}
	if open[1].Y < 0.5 {
		t.Errorf("heavy flood should expose most of the flow: %v", open[1])
	}
	sec := seriesPoints(t, f, "port-security")
	for _, p := range sec {
		if p.Y > 0.05 {
			t.Errorf("port security should pin eavesdropping near zero: %+v", sec)
		}
	}
}

func TestFigure4ChurnShape(t *testing.T) {
	f := Figure4ChurnFalsePositives(1)
	aw := seriesPoints(t, f, "arpwatch")
	if aw[0].Y != 0 {
		t.Errorf("zero churn must mean zero arpwatch FPs: %+v", aw[0])
	}
	if aw[len(aw)-1].Y <= aw[0].Y {
		t.Errorf("arpwatch FPs must grow with churn: %+v", aw)
	}
	for _, scheme := range []string{"active-probe", "hybrid-guard"} {
		for _, p := range seriesPoints(t, f, scheme) {
			if p.Y > aw[len(aw)-1].Y {
				t.Errorf("%s FPs should stay below arpwatch's peak: %+v", scheme, p)
			}
		}
	}
}

func TestTable6EvasiveAttackerShape(t *testing.T) {
	tbl := Table6EvasiveAttacker(2)
	// Active verification is evaded: deceived, not flagged.
	probe := findRow(t, tbl, "active-probe")
	if probe[1] != "2/2" {
		t.Errorf("active-probe should be deceived by an impersonator: %v", probe)
	}
	if probe[2] != "0/2" {
		t.Errorf("active-probe should clear (not flag) the impersonation: %v", probe)
	}
	// The passive monitor still notices the unexplained binding change.
	aw := findRow(t, tbl, "arpwatch")
	if aw[2] != "2/2" {
		t.Errorf("arpwatch should flag the takeover: %v", aw)
	}
	// DAI and S-ARP are immune: the victim is never deceived.
	for _, scheme := range []string{"dai", "s-arp"} {
		row := findRow(t, tbl, scheme)
		if row[1] != "0/2" {
			t.Errorf("%s should keep the victim clean: %v", scheme, row)
		}
	}
	// Middleware commits the forgery — same blind spot as the prober.
	mw := findRow(t, tbl, "middleware")
	if mw[1] != "2/2" {
		t.Errorf("middleware should be deceived here: %v", mw)
	}
}

func TestTable7PortStealingShape(t *testing.T) {
	tbl := Table7PortStealing(2)
	// Without defenses the flow is intercepted.
	if row := findRow(t, tbl, "none"); row[1] != "2/2" {
		t.Errorf("undefended stealing should intercept: %v", row)
	}
	// Every ARP-layer scheme is blind: intercepted, not flagged.
	for _, scheme := range []string{"arpwatch", "dai", "hybrid-guard"} {
		row := findRow(t, tbl, scheme)
		if row[1] != "2/2" {
			t.Errorf("%s should not stop CAM theft: %v", scheme, row)
		}
		if row[2] != "0/2" {
			t.Errorf("%s should see nothing (no ARP was forged): %v", scheme, row)
		}
	}
	// Sticky port security blocks and flags it.
	sec := findRow(t, tbl, "port-security-sticky")
	if sec[1] != "0/2" || sec[2] != "2/2" {
		t.Errorf("sticky port security should block and flag: %v", sec)
	}
}

// TestTable10HybridGuardWaitsForVerification: the guard pages only on
// verified failures, and only its outer sink files alert spans, so the
// first attack alert Table 10 attributes is the prober's, charged at least
// the 500 ms default verify window (Table 10 changes only seedGateway).
// The demoted arpwatch layer's instant flip-flop never pages.
func TestTable10HybridGuardWaitsForVerification(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := runTrial(trialConfig{
			scheme: registry.NameHybridGuard, seed: seed + 10000, hosts: 8, churns: noChurn,
			attackAt: 60 * time.Second, horizon: 90 * time.Second, stop: stopAttributed,
		})
		if res.stages == nil {
			t.Fatalf("seed %d: no attack alert attributed", seed)
		}
		if res.total < 500*time.Millisecond {
			t.Errorf("seed %d: attributed end-to-end %v, want >= the 500ms verify window (stages %v)", seed, res.total, res.stages)
		}
	}
}

func TestFigure6WindowAblationShape(t *testing.T) {
	f := Figure6WindowAblation(8)
	short := seriesPoints(t, f, "100ms")
	long := seriesPoints(t, f, "1s")
	if short[0].Y != 0 || long[0].Y != 0 {
		t.Errorf("zero loss must mean zero false rejections: %v %v", short[0], long[0])
	}
	// At heavy loss the short window must reject more than the long one.
	if !(short[len(short)-1].Y >= long[len(long)-1].Y) {
		t.Errorf("short window should suffer at least as much under loss: short=%v long=%v",
			short[len(short)-1], long[len(long)-1])
	}
	// And loss must hurt at all.
	if short[len(short)-1].Y == 0 {
		t.Errorf("30%% loss should cause some false rejections: %+v", short)
	}
}

func TestFigure7DefenseWarShape(t *testing.T) {
	f := Figure7DefenseWar(120)
	undefended := seriesPoints(t, f, "no-defense")
	for _, p := range undefended {
		if p.Y < 0.9 {
			t.Errorf("undefended poisoning should hold ≈1 at period %vs: %v", p.X, p.Y)
		}
	}
	defended := seriesPoints(t, f, "defense-1s")
	// The defended fraction must fall as the attacker slows.
	first, last := defended[0], defended[len(defended)-1]
	if !(last.Y < first.Y) {
		t.Errorf("defense should win as the attacker slows: %+v", defended)
	}
	// At a 10s attacker period the victim should be clean nearly always.
	if last.Y > 0.2 {
		t.Errorf("slow attacker vs 1s defense: fraction = %v, want near 0", last.Y)
	}
	// And the defense must beat no-defense everywhere.
	for i := range defended {
		if defended[i].Y > undefended[i].Y {
			t.Errorf("defense worse than none at %vs", defended[i].X)
		}
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	f := &Figure{ID: "Figure X", Title: "t", XLabel: "x", YLabel: "y"}
	f.AddPoint("a", 1, 2)
	f.AddPoint("a", 2, 3)
	f.AddPoint("b", 1, 5)
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "series a") || !strings.Contains(buf.String(), "series b") {
		t.Fatalf("render:\n%s", buf.String())
	}
	var csv bytes.Buffer
	if err := f.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 4 {
		t.Fatalf("csv lines = %d", lines)
	}
}

// fmtSscan parses a leading float from a table cell.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestTable8FaultRobustnessShape(t *testing.T) {
	tbl := Table8FaultRobustness(2)
	if want := len(DetectionSchemes()) * len(table8Intensities); len(tbl.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), want)
	}
	// At intensity 0 the trial is the established-binding MITM with no
	// impairments: every scheme must detect every time with no false alarms.
	for _, row := range tbl.Rows {
		if row[1] != "0.00" {
			continue
		}
		if row[2] != "1.00" {
			t.Errorf("%s clean-network TPR = %s, want 1.00", row[0], row[2])
		}
		if row[3] != "0.00" {
			t.Errorf("%s clean-network FP/trial = %s, want 0.00", row[0], row[3])
		}
	}
	// Periodic poisoning survives burst loss: the passive single-sighting
	// schemes must still detect at full intensity (a later round is seen).
	for _, row := range tbl.Rows {
		if row[1] == "1.00" && (row[0] == "arpwatch" || row[0] == "snort-like") {
			if row[2] == "0.00" {
				t.Errorf("%s detected nothing at full fault intensity: %v", row[0], row)
			}
		}
	}
}

func TestFigure8FaultSweepShape(t *testing.T) {
	f := Figure8FaultIntensitySweep(2)
	for _, scheme := range DetectionSchemes() {
		pts := seriesPoints(t, f, scheme)
		if len(pts) != 5 {
			t.Fatalf("%s has %d points, want 5", scheme, len(pts))
		}
		for i, p := range pts {
			if p.Y <= 0 {
				t.Errorf("%s point %d: median time-to-detect %v must be positive", scheme, i, p.Y)
			}
			// Censoring bounds every median by the observation window.
			if p.Y > 60_000 {
				t.Errorf("%s point %d: median %vms exceeds the 60s observation bound", scheme, i, p.Y)
			}
		}
	}
}

func TestFaultPlanForIntensity(t *testing.T) {
	if faultPlanForIntensity(0, time.Minute) != nil {
		t.Fatal("intensity 0 must mean no plan at all")
	}
	p := faultPlanForIntensity(1, time.Minute)
	if p == nil || len(p.Events) != 5 {
		t.Fatalf("full-intensity plan: %+v", p)
	}
}
