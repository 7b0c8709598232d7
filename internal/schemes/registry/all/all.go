// Package all links every scheme registration into the importing binary.
// Consumers that resolve schemes by name (the eval harness, the scenario
// loader, the CLIs) blank-import it once; adding a scheme to the framework
// means adding its sub-package here and nowhere else.
package all

import (
	_ "repro/internal/schemes/activeprobe"  // active-probe
	_ "repro/internal/schemes/arpwatch"     // arpwatch
	_ "repro/internal/schemes/dai"          // dai
	_ "repro/internal/schemes/flooddetect"  // flood-detect
	_ "repro/internal/schemes/kernelpolicy" // kernel-policy
	_ "repro/internal/schemes/middleware"   // middleware
	_ "repro/internal/schemes/portsec"      // port-security
	_ "repro/internal/schemes/sarp"         // s-arp
	_ "repro/internal/schemes/snortlike"    // snort-like
	_ "repro/internal/schemes/staticarp"    // static-arp
	_ "repro/internal/schemes/tarp"         // tarp
)
