package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/*.golden instead of comparing.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestGoldenOutput pins the CLI's full narration, byte for byte, for every
// variant against the naive cache policy. A deliberate output change
// regenerates them with UPDATE_GOLDEN=1.
func TestGoldenOutput(t *testing.T) {
	for _, variant := range []string{"gratuitous", "unsolicited-reply", "request-spoof", "reply-race", "mitm", "blackhole", "port-steal", "scan"} {
		t.Run(variant, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, []string{"-variant", variant, "-policy", "naive"}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", variant+".golden")
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
				t.Fatalf("arpattack -variant %s drifted from %s:\ngot:\n%s\nwant:\n%s", variant, path, buf.Bytes(), want)
			}
		})
	}
}
