// Package arpwatch implements the passive network-monitoring detection
// scheme: a database of observed IP↔MAC pairings fed from a mirror port,
// raising flip-flop alerts when a live binding changes and new-station
// notices when an unseen pairing appears — the behaviour of the classic
// arpwatch tool the paper's analysis evaluates.
//
// Being purely passive it adds zero traffic, but it cannot tell a poisoning
// flip-flop from a benign DHCP reassignment (the false-positive axis), and
// it cannot see the first poisoning of a binding it has never observed.
package arpwatch

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/arppkt"
	"repro/internal/denseidx"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// entry is one observed pairing.
type entry struct {
	ip       ethaddr.IPv4
	mac      ethaddr.MAC
	lastSeen time.Duration
	flips    int
}

// Option configures the Watcher.
type Option func(*Watcher)

// WithHoldDown suppresses repeat flip-flop alerts for the same IP within d
// (default 20s, mirroring the log-damping real deployments use).
func WithHoldDown(d time.Duration) Option {
	return func(w *Watcher) { w.holdDown = d }
}

// WithNewStationAlerts enables alerts for first-seen bindings (off by
// default: on a fresh deployment every host would page).
func WithNewStationAlerts() Option {
	return func(w *Watcher) { w.alertNew = true }
}

// WithFlipFlopThreshold requires n binding changes for the same IP inside
// the hold-down window before alerting (default 1: every change alerts, as
// classic arpwatch does).
func WithFlipFlopThreshold(n int) Option {
	return func(w *Watcher) { w.flipThreshold = n }
}

// Watcher is the passive monitor.
type Watcher struct {
	sched         *sim.Scheduler
	sink          *schemes.Sink
	db            []entry        // pairings by value, in first-seen order
	dbIndex       denseidx.Index // IP → position in db
	lastAlert     map[ethaddr.IPv4]time.Duration
	holdDown      time.Duration
	alertNew      bool
	flipThreshold int
	observed      uint64
}

var _ schemes.Detector = (*Watcher)(nil)

// New creates a watcher reporting into sink.
func New(s *sim.Scheduler, sink *schemes.Sink, opts ...Option) *Watcher {
	w := &Watcher{
		sched:         s,
		sink:          sink,
		lastAlert:     make(map[ethaddr.IPv4]time.Duration),
		holdDown:      20 * time.Second,
		flipThreshold: 1,
	}
	for _, opt := range opts {
		opt(w)
	}
	w.dbIndex.Init(0)
	return w
}

// lookup returns ip's pairing, or nil when the watcher has none.
func (w *Watcher) lookup(ip ethaddr.IPv4) *entry {
	if i := w.dbIndex.Get(uint64(ip.Uint32())); i >= 0 {
		return &w.db[i]
	}
	return nil
}

// add records a pairing for an ip the watcher does not track yet.
func (w *Watcher) add(ip ethaddr.IPv4, mac ethaddr.MAC, at time.Duration) {
	w.dbIndex.Set(uint64(ip.Uint32()), len(w.db))
	w.db = append(w.db, entry{ip: ip, mac: mac, lastSeen: at})
}

// Name implements schemes.Detector.
func (w *Watcher) Name() string { return "arpwatch" }

// DBLen returns the number of tracked pairings.
func (w *Watcher) DBLen() int { return len(w.db) }

// Seed preloads the database (deployments often start from a known-good
// snapshot to cover the cold-start blind spot).
func (w *Watcher) Seed(ip ethaddr.IPv4, mac ethaddr.MAC) {
	if e := w.lookup(ip); e != nil {
		*e = entry{ip: ip, mac: mac, lastSeen: w.sched.Now()}
		return
	}
	w.add(ip, mac, w.sched.Now())
}

// SaveDB writes the pairing database in the classic arp.dat line format
// ("mac ip lastSeenSeconds"), sorted by address for stable diffs. Real
// deployments persist the database across restarts precisely to keep the
// cold-start blind spot closed.
func (w *Watcher) SaveDB(out io.Writer) error {
	db := slices.Clone(w.db)
	slices.SortFunc(db, func(a, b entry) int { return cmp.Compare(a.ip.Uint32(), b.ip.Uint32()) })
	bw := bufio.NewWriter(out)
	for _, e := range db {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%d\n", e.mac, e.ip, int64(e.lastSeen/time.Second)); err != nil {
			return fmt.Errorf("write db: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write db: %w", err)
	}
	return nil
}

// LoadDB merges a saved database into the watcher, skipping addresses it
// already tracks (live observations outrank stale snapshots).
func (w *Watcher) LoadDB(in io.Reader) error {
	sc := bufio.NewScanner(in)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return fmt.Errorf("load db line %d: malformed entry %q", line, text)
		}
		mac, err := ethaddr.ParseMAC(fields[0])
		if err != nil {
			return fmt.Errorf("load db line %d: %w", line, err)
		}
		ip, err := ethaddr.ParseIPv4(fields[1])
		if err != nil {
			return fmt.Errorf("load db line %d: %w", line, err)
		}
		if w.lookup(ip) == nil {
			w.add(ip, mac, w.sched.Now())
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("load db: %w", err)
	}
	return nil
}

// Observe implements schemes.Detector.
func (w *Watcher) Observe(ev netsim.TapEvent) {
	if ev.Frame.Type != frame.TypeARP {
		return
	}
	p, err := arppkt.DecodeFrame(ev.Frame)
	if err != nil {
		return
	}
	w.observed++
	ip, mac := p.Binding()
	if ip.IsZero() || !mac.IsUnicast() {
		return
	}
	now := ev.At
	e := w.lookup(ip)
	if e == nil {
		w.add(ip, mac, now)
		if w.alertNew {
			w.sink.Report(schemes.Alert{
				At: now, Scheme: w.Name(), Kind: schemes.AlertNewStation,
				IP: ip, NewMAC: mac, Detail: "first pairing observed",
			})
		}
		return
	}
	if e.mac == mac {
		e.lastSeen = now
		e.flips = 0
		return
	}
	// Binding changed: the flip-flop signature.
	old := e.mac
	e.flips++
	flips := e.flips
	e.mac = mac
	e.lastSeen = now
	if flips < w.flipThreshold {
		return
	}
	if last, ok := w.lastAlert[ip]; ok && now-last < w.holdDown {
		return
	}
	w.lastAlert[ip] = now
	w.sink.Report(schemes.Alert{
		At: now, Scheme: w.Name(), Kind: schemes.AlertFlipFlop,
		IP: ip, OldMAC: old, NewMAC: mac, Detail: "binding changed",
	})
}
