package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/*.golden instead of comparing.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestGoldenOutput pins the CLI's full narration, byte for byte, for every
// scheme of TestEverySchemeAgainstGratuitous against a one-shot poison and a
// relaying MITM, the rate detector against a scan, and one traced run. A
// deliberate output change regenerates them with UPDATE_GOLDEN=1.
func TestGoldenOutput(t *testing.T) {
	var cases [][]string
	for _, scheme := range []string{"arpwatch", "active-probe", "middleware", "static-arp", "dai", "s-arp", "tarp", "hybrid-guard"} {
		for _, atk := range []string{"gratuitous", "mitm"} {
			cases = append(cases, []string{"-scheme", scheme, "-attack", atk})
		}
	}
	cases = append(cases,
		[]string{"-scheme", "flood-detect", "-attack", "scan"},
		[]string{"-scheme", "active-probe", "-attack", "mitm", "-trace"},
	)
	for _, args := range cases {
		name := strings.Join([]string{args[1], args[3]}, "-")
		if len(args) > 4 {
			name += "-trace"
		}
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, args); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("arpguard %s drifted from %s:\ngot:\n%s\nwant:\n%s", strings.Join(args, " "), path, buf.Bytes(), want)
			}
		})
	}
}
