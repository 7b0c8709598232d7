package kernelpolicy

import (
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/labnet"
	"repro/internal/stack"
)

func TestProfilesOrderedAndNamed(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("profiles = %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || p.Description == "" {
			t.Fatalf("incomplete profile %+v", p)
		}
		if names[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
	}
	if ps[0].Name != "naive" || ps[len(ps)-1].Name != "solicited-only" {
		t.Fatal("profiles not in hardening order")
	}
}

func TestFind(t *testing.T) {
	if p, ok := Find("solicited-only"); !ok || p.Policy != stack.PolicySolicitedOnly {
		t.Fatal("lookup failed")
	}
	if _, ok := Find("nonsense"); ok {
		t.Fatal("unknown name found")
	}
}

// profile is Find for names the table below knows exist.
func profile(t *testing.T, name string) Profile {
	t.Helper()
	p, ok := Find(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return p
}

// TestHardeningMonotonicity is the behavioural heart of the policy matrix:
// each successive profile must block at least the unsolicited-reply attack
// the previous ones document.
func TestHardeningMonotonicity(t *testing.T) {
	vulnerable := func(p Profile, v attack.Variant) bool {
		l := labnet.New(labnet.Config{Policy: p.Policy, WithAttacker: true, WithMonitor: false})
		gw := l.Gateway()
		l.Attacker.Poison(v, gw.IP(), l.Attacker.MAC(), l.Victim().MAC(), l.Victim().IP())
		if err := l.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return l.PoisonedCount(gw.IP()) > 0
	}

	tests := []struct {
		profile string
		variant attack.Variant
		want    bool
	}{
		{"naive", attack.VariantGratuitous, true},
		{"naive", attack.VariantUnsolicitedReply, true},
		{"naive", attack.VariantRequestSpoof, true},
		{"reply-only", attack.VariantRequestSpoof, false},
		{"reply-only", attack.VariantUnsolicitedReply, true},
		{"no-overwrite", attack.VariantUnsolicitedReply, true}, // empty cache: first write wins
		{"solicited-only", attack.VariantGratuitous, false},
		{"solicited-only", attack.VariantUnsolicitedReply, false},
		{"solicited-only", attack.VariantRequestSpoof, false},
	}
	for _, tt := range tests {
		t.Run(tt.profile+"/"+tt.variant.String(), func(t *testing.T) {
			if got := vulnerable(profile(t, tt.profile), tt.variant); got != tt.want {
				t.Fatalf("vulnerable = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNoOverwriteProtectsEstablishedBinding(t *testing.T) {
	l := labnet.New(labnet.Config{Policy: profile(t, "no-overwrite").Policy, WithAttacker: true, WithMonitor: false})
	gw := l.Gateway()
	l.Victim().Resolve(gw.IP(), nil) // establish the genuine binding first
	if err := l.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	l.Attacker.Poison(attack.VariantUnsolicitedReply, gw.IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mac, _ := l.Victim().Cache().Lookup(gw.IP()); mac != gw.MAC() {
		t.Fatalf("established binding overwritten: %v", mac)
	}
}
