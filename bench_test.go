package repro

// The repository benchmark suite: micro-benchmarks for the hot paths whose
// costs the analysis argues about (packet codecs, cache updates, switch
// forwarding, the scheduler, the real ECDSA operations behind S-ARP/TARP),
// the Table 3 worker-pool pair check.sh runs, and the Figure 9 campus
// scaling points. Each whole experiment is timed by the repository
// benchmark (bench/run.sh, eval-suite's eval.<id>_ms) and by
// `arpbench -table N` / `arpbench -figure N`.
//
// Run:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable3Sequential -benchtime=1x

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/eval"
	"repro/internal/frame"
	"repro/internal/labnet"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
)

// --- experiment benchmarks: the worker pool and the campus scale ---

// benchmarkTable3At runs Table 3 at a fixed worker-pool width and checks
// the rendered output against the sequential reference, so the speedup
// numbers are only ever quoted for byte-identical results.
func benchmarkTable3At(b *testing.B, workers int) {
	eval.SetParallelism(1)
	var want bytes.Buffer
	if err := eval.Table3Detection(4).Render(&want); err != nil {
		b.Fatal(err)
	}
	eval.SetParallelism(workers)
	defer eval.SetParallelism(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eval.Table3Detection(4)
		var got bytes.Buffer
		if err := t.Render(&got); err != nil {
			b.Fatal(err)
		}
		if got.String() != want.String() {
			b.Fatal("parallel run diverged from the sequential reference output")
		}
	}
}

// BenchmarkTable3Sequential vs BenchmarkTable3Parallel measures the trial
// worker pool's wall-clock win on the flagship detection experiment
// (5 schemes × 4 seeds = 20 isolated simulations). Compare ns/op; on a
// ≥4-core machine the parallel variant should be ≥2x faster.
func BenchmarkTable3Sequential(b *testing.B) { benchmarkTable3At(b, 1) }
func BenchmarkTable3Parallel(b *testing.B)   { benchmarkTable3At(b, runtime.GOMAXPROCS(0)) }

// benchmarkFigure9Scale regenerates one campus-scaling point per
// iteration: assemble the routed multi-LAN campus at the given population,
// run the 30s MITM trial on the sharded engine, render the figure.
func benchmarkFigure9Scale(b *testing.B, hosts int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := eval.Figure9CampusScaling([]int{hosts}, 1, 0, 30*time.Second)
		if len(f.Series) != 2 {
			b.Fatal("unexpected figure shape")
		}
	}
}

// BenchmarkFigure9Scale1e2/1e4/1e6 price the sharded engine across four
// orders of magnitude of campus population; the 1e6 point is the ISSUE's
// CI budget gate.
func BenchmarkFigure9Scale1e2(b *testing.B) { benchmarkFigure9Scale(b, 100) }
func BenchmarkFigure9Scale1e4(b *testing.B) { benchmarkFigure9Scale(b, 10_000) }
func BenchmarkFigure9Scale1e6(b *testing.B) { benchmarkFigure9Scale(b, 1_000_000) }

// --- micro-benchmarks: the costs the analysis prices ---

func BenchmarkARPEncode(b *testing.B) {
	p := arppkt.NewRequest(
		ethaddr.MustParseMAC("02:42:ac:00:00:01"),
		ethaddr.MustParseIPv4("10.0.0.1"),
		ethaddr.MustParseIPv4("10.0.0.2"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(p.Encode()) != arppkt.PacketLen {
			b.Fatal("bad encode")
		}
	}
}

func BenchmarkARPDecode(b *testing.B) {
	wire := arppkt.NewReply(
		ethaddr.MustParseMAC("02:42:ac:00:00:01"),
		ethaddr.MustParseIPv4("10.0.0.1"),
		ethaddr.MustParseMAC("02:42:ac:00:00:02"),
		ethaddr.MustParseIPv4("10.0.0.2")).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := arppkt.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	f := &frame.Frame{
		Dst:     ethaddr.BroadcastMAC,
		Src:     ethaddr.MustParseMAC("02:42:ac:00:00:01"),
		Type:    frame.TypeIPv4,
		Payload: make([]byte, 512),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := f.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := frame.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheUpdate measures Cache.Update at several resident entry
// counts. The resident-N cases refresh each resident binding in turn, the
// shape of a host's cache under a LAN's broadcast fan-out; the miss case
// offers unsolicited replies for absent addresses to a full
// solicited-only cache, so every update probes, misses, and is rejected.
func BenchmarkCacheUpdate(b *testing.B) {
	gateway := ethaddr.MustParseMAC("02:42:ac:ff:ff:fe")
	gatewayIP := ethaddr.MustParseIPv4("10.255.255.254")
	replies := func(n, offset int) []*arppkt.Packet {
		ps := make([]*arppkt.Packet, n)
		for i := range ps {
			k := i + offset
			ip := ethaddr.IPv4{10, byte(k >> 16), byte(k >> 8), byte(k)}
			mac := ethaddr.MAC{0x02, 0x42, 0xac, byte(k >> 16), byte(k >> 8), byte(k)}
			ps[i] = arppkt.NewReply(mac, ip, gateway, gatewayIP)
		}
		return ps
	}
	run := func(b *testing.B, c *stack.Cache, ps []*arppkt.Packet) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Update(ps[i%len(ps)], false)
		}
	}
	for _, n := range []int{8, 128, 1024} {
		b.Run(fmt.Sprintf("resident-%d", n), func(b *testing.B) {
			c := stack.NewCache(sim.NewScheduler(1), stack.PolicyNaive, time.Hour)
			ps := replies(n, 1)
			for _, p := range ps {
				c.Update(p, false)
			}
			run(b, c, ps)
		})
	}
	b.Run("miss-1024", func(b *testing.B) {
		c := stack.NewCache(sim.NewScheduler(1), stack.PolicySolicitedOnly, time.Hour)
		for _, p := range replies(1024, 1) {
			c.Update(p, true)
		}
		run(b, c, replies(1024, 1<<20))
	})
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := sim.NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i), func() {})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerSteadyState measures the engine's real operating shape:
// each event schedules the next, so the free list recycles one event
// forever. This is the path every retry timer, probe window and frame hop
// rides; with pooling it runs allocation-free.
func BenchmarkSchedulerSteadyState(b *testing.B) {
	s := sim.NewScheduler(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, step)
		}
	}
	s.After(time.Microsecond, step)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("ran %d of %d events", n, b.N)
	}
}

// BenchmarkSchedulerDeepQueue is the resolution-storm shape of the queue:
// ~16k events in flight at one fixed delay, each rescheduling itself at that
// delay when it fires, beside a jittered stream of 256 events whose delays
// vary. The fixed-delay events ride a FIFO lane and the jittered ones the
// heap; once both are warm the engine schedules without allocating, which
// check.sh holds at 0 allocs/op.
func BenchmarkSchedulerDeepQueue(b *testing.B) {
	const (
		inFlight = 16384
		jittered = 256
		delay    = 50 * time.Microsecond
	)
	s := sim.NewScheduler(1)
	n, target := 0, 0
	var fixed, jitter func()
	fixed = func() {
		if n++; n == target {
			s.Stop()
		}
		s.After(delay, fixed)
	}
	jitter = func() {
		if n++; n == target {
			s.Stop()
		}
		s.After(delay/2+time.Duration(s.Int63n(int64(delay))), jitter)
	}
	for i := 0; i < inFlight; i++ {
		s.After(delay, fixed)
	}
	for i := 0; i < jittered; i++ {
		s.After(time.Duration(s.Int63n(int64(delay))), jitter)
	}
	run := func(events int) {
		target = n + events
		if err := s.Run(); !errors.Is(err, sim.ErrStopped) {
			b.Fatalf("run ended with %v after %d of %d events", err, n, target)
		}
	}
	run(4 * inFlight) // warm: lanes, heap and free list at their peak
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkResolutionStorm runs the t=0 resolution storm of a populated flat
// LAN to quiescence: 128 hosts each resolve the 127 others at once
// (SeedMutualCaches), 16,256 broadcast requests fanned out to every host.
func BenchmarkResolutionStorm(b *testing.B) {
	const hosts = 128
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := labnet.New(labnet.Config{Seed: 1, Hosts: hosts})
		l.SeedMutualCaches()
		if err := l.Sched.Run(); err != nil {
			b.Fatal(err)
		}
		if n := l.Gateway().Cache().Len(); n != hosts-1 {
			b.Fatalf("gateway cache holds %d entries after the storm, want %d", n, hosts-1)
		}
		l.Recycle()
	}
}

// BenchmarkSchedulerEvery prices one periodic tick: the re-armed cycle
// reuses a single pooled event instead of allocating one per period.
func BenchmarkSchedulerEvery(b *testing.B) {
	s := sim.NewScheduler(1)
	n := 0
	tm := s.Every(time.Microsecond, func() { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.RunUntil(time.Duration(b.N) * time.Microsecond); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	tm.Stop()
	if n < b.N {
		b.Fatalf("ticked %d of %d", n, b.N)
	}
}

func BenchmarkSwitchForward(b *testing.B) {
	// One learned unicast forwarding decision per iteration, end to end
	// through the event queue.
	s := sim.NewScheduler(1)
	sw := netsim.NewSwitch(s)
	gen := ethaddr.NewGen(1)
	a := netsim.NewNIC(s, gen.SeqMAC())
	c := netsim.NewNIC(s, gen.SeqMAC())
	sw.AddPort().Attach(a)
	sw.AddPort().Attach(c)
	got := 0
	c.SetHandler(func(*frame.Frame) { got++ })
	// Teach the switch where c lives.
	c.Send(&frame.Frame{Dst: ethaddr.BroadcastMAC, Src: c.MAC(), Type: frame.TypeIPv4})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	f := &frame.Frame{Dst: c.MAC(), Src: a.MAC(), Type: frame.TypeIPv4, Payload: make([]byte, 64)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(f)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if got < b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

func BenchmarkEndToEndResolution(b *testing.B) {
	// A full cold ARP resolution through the simulated LAN per iteration.
	l := labnet.New(labnet.Config{Hosts: 4, WithAttacker: false, WithMonitor: false})
	gw, victim := l.Gateway(), l.Victim()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim.Cache().Delete(gw.IP())
		ok := false
		victim.Resolve(gw.IP(), func(_ ethaddr.MAC, good bool) { ok = good })
		if err := l.Sched.RunUntil(l.Sched.Now() + time.Second); err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("resolution failed")
		}
	}
}

func BenchmarkPoisoningAttack(b *testing.B) {
	// One gratuitous poisoning delivered to three victims per iteration.
	l := labnet.New(labnet.Config{Hosts: 4, WithAttacker: true, WithMonitor: false})
	gw := l.Gateway()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Attacker.Poison(attack.VariantGratuitous, gw.IP(), l.Attacker.MAC(),
			l.Victim().MAC(), l.Victim().IP())
		if err := l.Sched.RunUntil(l.Sched.Now() + time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- telemetry overhead: the instrumented hot path must stay within a few
// percent of the bare one (nil-registry calls compile to no-op method calls
// on nil instruments) ---

func benchmarkMITM16(b *testing.B, instrumented, traced bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var reg *telemetry.Registry
		if instrumented {
			reg = telemetry.New()
		}
		l := labnet.New(labnet.Config{Seed: 1, Hosts: 16, WithAttacker: true,
			WithMonitor: true, Telemetry: reg, Tracing: traced})
		gw, victim := l.Gateway(), l.Victim()
		l.SeedMutualCaches()
		l.Attacker.PoisonPeriodically(time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		l.Attacker.RelayBetween(victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		if err := l.Run(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMITM16Bare and BenchmarkMITM16Instrumented run the same 16-host
// MITM scenario with and without a live telemetry registry; compare ns/op
// to price the instrumentation (expected within ~5%). Traced stacks the
// causal span recorder on top of the instrumented run — the enabled-tracing
// premium is Traced minus Instrumented, and the disabled path (Bare,
// Instrumented, and every other benchmark here) pays only a nil check per
// hop: check.sh holds BenchmarkSchedulerSteadyState to 0 allocs/op.
func BenchmarkMITM16Bare(b *testing.B)         { benchmarkMITM16(b, false, false) }
func BenchmarkMITM16Instrumented(b *testing.B) { benchmarkMITM16(b, true, false) }
func BenchmarkMITM16Traced(b *testing.B)       { benchmarkMITM16(b, true, true) }

func BenchmarkECDSASign(b *testing.B) {
	// The per-reply cost S-ARP charges the sender.
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	digest := sha256.Sum256([]byte("arp reply payload"))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ecdsa.SignASN1(rand.Reader, priv, digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDSAVerify(b *testing.B) {
	// The per-reply cost S-ARP and TARP charge the receiver.
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	digest := sha256.Sum256([]byte("arp reply payload"))
	sig, err := ecdsa.SignASN1(rand.Reader, priv, digest[:])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !ecdsa.VerifyASN1(&priv.PublicKey, digest[:], sig) {
			b.Fatal("verify failed")
		}
	}
}
