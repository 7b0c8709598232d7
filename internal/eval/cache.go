package eval

import "repro/internal/telemetry"

// EnableResultCache does nothing. The eval package keeps no result cache:
// every experiment renders once per process, so a seed-addressed cache
// never hit. The function remains only because the benchmark's eval-suite
// workload (bench/evalsuite.go) still calls it.
func EnableResultCache(*telemetry.Registry) {}

// DisableResultCache does nothing; like EnableResultCache it remains only
// because bench/evalsuite.go calls it.
func DisableResultCache() {}
