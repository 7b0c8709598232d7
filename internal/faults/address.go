// Hierarchical fault addressing. A routed topology needs to say *which*
// segment's link 3, and campus-wide plans want wildcards. The grammar is
// deliberately tiny:
//
//	lan:3/link:7    link 7 on LAN 3
//	lan:*/link:7    link 7 on every LAN
//	lan:3/link:*    every link on LAN 3
//	lan:3           shorthand for lan:3/link:* (link events only)
//	lan:*           every link everywhere
//	lan:3/host:2    station 2 on LAN 3 (host-churn)
//	trunk:2-5       the backbone edge from LAN 2 toward LAN 5
//	trunk:2-*       every edge leaving LAN 2
//	trunk:*         every backbone edge
//
// A flat LAN is the single-site topology "lan 0", so its link 3 is
// "lan:0/link:3".
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// wildcard marks "every index" in a parsed selector.
const wildcard = -1

// linkAddr is a parsed link selector; lan and link may be wildcard.
type linkAddr struct{ lan, link int }

// hostAddr is a parsed station selector; lan may be wildcard.
type hostAddr struct{ lan, host int }

// trunkAddr is a parsed backbone-edge selector; either side may be wildcard.
type trunkAddr struct{ from, to int }

// lanAddr is a parsed segment selector; may be wildcard.
type lanAddr int

// parseIndex parses one selector component: a non-negative integer or "*".
func parseIndex(what, s string) (int, error) {
	if s == "*" {
		return wildcard, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s index %q (want a non-negative integer or *)", what, s)
	}
	return n, nil
}

// parsePart splits "kind:value", enforcing the expected kind.
func parsePart(kind, part string) (string, error) {
	k, v, ok := strings.Cut(part, ":")
	if !ok || k != kind || v == "" {
		return "", fmt.Errorf("bad selector part %q (want %s:<index> or %s:*)", part, kind, kind)
	}
	return v, nil
}

// parseLanAddr parses a segment selector: "lan:3" or "lan:*".
func parseLanAddr(s string) (lanAddr, error) {
	v, err := parsePart("lan", s)
	if err != nil {
		return 0, err
	}
	n, err := parseIndex("lan", v)
	if err != nil {
		return 0, err
	}
	return lanAddr(n), nil
}

// parseLinkAddr parses a hierarchical link selector.
func parseLinkAddr(s string) (linkAddr, error) {
	lanPart, linkPart, hasLink := strings.Cut(s, "/")
	lv, err := parsePart("lan", lanPart)
	if err != nil {
		return linkAddr{}, fmt.Errorf("link address %q: %w", s, err)
	}
	lan, err := parseIndex("lan", lv)
	if err != nil {
		return linkAddr{}, fmt.Errorf("link address %q: %w", s, err)
	}
	link := wildcard // "lan:3" alone means every link on LAN 3
	if hasLink {
		kv, err := parsePart("link", linkPart)
		if err != nil {
			return linkAddr{}, fmt.Errorf("link address %q: %w", s, err)
		}
		if link, err = parseIndex("link", kv); err != nil {
			return linkAddr{}, fmt.Errorf("link address %q: %w", s, err)
		}
	}
	return linkAddr{lan: lan, link: link}, nil
}

// parseHostAddr parses a hierarchical station selector: "lan:3/host:2" or
// "lan:*/host:2". The host index is required and concrete — churning "every
// station" is a misconfiguration, not a fault model.
func parseHostAddr(s string) (hostAddr, error) {
	lanPart, hostPart, ok := strings.Cut(s, "/")
	if !ok {
		return hostAddr{}, fmt.Errorf("host address %q: want lan:<i>/host:<j>", s)
	}
	lv, err := parsePart("lan", lanPart)
	if err != nil {
		return hostAddr{}, fmt.Errorf("host address %q: %w", s, err)
	}
	lan, err := parseIndex("lan", lv)
	if err != nil {
		return hostAddr{}, fmt.Errorf("host address %q: %w", s, err)
	}
	hv, err := parsePart("host", hostPart)
	if err != nil {
		return hostAddr{}, fmt.Errorf("host address %q: %w", s, err)
	}
	host, err := parseIndex("host", hv)
	if err != nil {
		return hostAddr{}, fmt.Errorf("host address %q: %w", s, err)
	}
	if host == wildcard {
		return hostAddr{}, fmt.Errorf("host address %q: host index must be concrete (churning every station at once is not a fault model)", s)
	}
	return hostAddr{lan: lan, host: host}, nil
}

// parseTrunkAddr parses a backbone-edge selector: "trunk:2-5", "trunk:2-*",
// "trunk:*-5", or "trunk:*" (every edge).
func parseTrunkAddr(s string) (trunkAddr, error) {
	v, err := parsePart("trunk", s)
	if err != nil {
		return trunkAddr{}, fmt.Errorf("trunk address %q: want trunk:<from>-<to> or trunk:*", s)
	}
	if v == "*" {
		return trunkAddr{from: wildcard, to: wildcard}, nil
	}
	fromPart, toPart, ok := strings.Cut(v, "-")
	if !ok {
		return trunkAddr{}, fmt.Errorf("trunk address %q: want trunk:<from>-<to> or trunk:*", s)
	}
	from, err := parseIndex("trunk source", fromPart)
	if err != nil {
		return trunkAddr{}, fmt.Errorf("trunk address %q: %w", s, err)
	}
	to, err := parseIndex("trunk destination", toPart)
	if err != nil {
		return trunkAddr{}, fmt.Errorf("trunk address %q: %w", s, err)
	}
	return trunkAddr{from: from, to: to}, nil
}
