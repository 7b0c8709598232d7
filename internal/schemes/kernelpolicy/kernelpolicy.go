// Package kernelpolicy expresses the "patch the OS cache rules" family of
// prevention schemes the paper analyzes — refusing unsolicited replies,
// refusing overwrites of live entries, ignoring request-borne bindings — as
// named, selectable profiles over stack.Policy. The policy-matrix experiment
// sweeps these profiles against every attack variant.
package kernelpolicy

import "repro/internal/stack"

// Profile names a cache-policy hardening level.
type Profile struct {
	// Name identifies the profile in reports ("naive", "reply-only", ...).
	Name string
	// Policy is the stack policy the profile selects.
	Policy stack.Policy
	// Description summarizes the hardening in one line.
	Description string
}

// Profiles returns all profiles in hardening order, from the fully
// permissive baseline to the solicited-only patched kernel.
func Profiles() []Profile {
	return []Profile{
		{
			Name:        "naive",
			Policy:      stack.PolicyNaive,
			Description: "accept and overwrite from any ARP message (unpatched legacy stack)",
		},
		{
			Name:        "reply-only",
			Policy:      stack.PolicyReplyOnly,
			Description: "learn only from replies, unsolicited included",
		},
		{
			Name:        "no-overwrite",
			Policy:      stack.PolicyNoOverwrite,
			Description: "learn liberally but never replace a live entry before expiry",
		},
		{
			Name:        "solicited-only",
			Policy:      stack.PolicySolicitedOnly,
			Description: "accept only replies answering an outstanding request",
		},
	}
}

// Find returns the named profile, reporting whether it exists.
func Find(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
