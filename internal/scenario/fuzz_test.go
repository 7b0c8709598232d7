package scenario

import (
	"bytes"
	"testing"
)

// FuzzScenario drives the scenario front end with arbitrary bytes: Load
// must return an error or a spec, never panic, and every spec it accepts
// must run to completion without panicking. Accepted specs are shortened to
// a 2 s horizon and oversized topologies are skipped, so each input costs
// milliseconds. The seed corpus in testdata/fuzz/FuzzScenario holds the
// bundled scenarios plus specs that once passed Load and then panicked in
// Run.
func FuzzScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if cs := spec.Campus; cs != nil {
			perLAN := cs.HostsPerLAN
			if perLAN == 0 {
				perLAN = 16
			}
			if perLAN > 2048 || cs.lans()*perLAN > 2048 {
				return
			}
		} else if spec.Hosts > 32 {
			return
		}
		if spec.DurationSeconds == 0 || spec.DurationSeconds > 2 {
			spec.DurationSeconds = 2
		}
		_, _ = Run(spec) // errors are fine; panics are not
	})
}
