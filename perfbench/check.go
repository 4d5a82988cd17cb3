package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// pinnedDigests are the canonical result-row digests at defaultSeed.
// A program change that moves any simulated figure changes them.
var pinnedDigests = map[string]string{
	"fig9-cold":       "665ddc96dd69c69d6eaf05833e4667de58afc572eac2e0e219f539450e301b42",
	"horizons-resume": "8fb40c8b9daee18c1012d7b30cf23252a3588e2f1a679b2ed48c890a72f566a9",
	"attack-zoo":      "6af7c3648fcb9f14be8136005563e0f40d37faf10b4ee603f737ad6ff8a1a54e",
	"service-mix":     "ce896616c662880dbaea16ff88c6e09453ac9d52229792eba33879ab9e5d4687",
}

// checker is the correctness gate every rep passes through: the rows'
// digest must match the pin (at defaultSeed) and the first rep's, the
// seed-independent invariants must hold, and on single-worker sim
// workloads the exact counts must repeat rep to rep. A rep that fails
// any check counts all its operations as failed, and its timings are
// left out.
type checker struct {
	name      string
	seed      uint64
	det       bool
	digest    string
	counts    map[string]uint64
	attempted int
	failed    int
}

func (c *checker) check(out repOut) bool {
	c.attempted += out.attempted
	problems := out.problems
	d, err := digest(out.rows)
	if err != nil {
		problems = append(problems, err.Error())
	}
	if c.digest == "" {
		c.digest = d
		fmt.Fprintf(os.Stderr, "%s seed %d digest %s\n", c.name, c.seed, d)
		if pin := pinnedDigests[c.name]; c.seed == defaultSeed && pin != "" && d != pin {
			problems = append(problems, fmt.Sprintf("digest %s, pinned %s", d, pin))
		}
	} else if d != c.digest {
		problems = append(problems, fmt.Sprintf("digest %s differs from the first rep's %s", d, c.digest))
	}
	if c.counts == nil {
		c.counts = out.counts
		fmt.Fprintf(os.Stderr, "counts %s\n", formatCounts(out.counts))
	} else if c.det {
		for k, v := range out.counts {
			if c.counts[k] == v {
				continue
			}
			msg := fmt.Sprintf("count %s = %d, first rep had %d", k, v, c.counts[k])
			if strings.HasPrefix(k, "runtime.") {
				// The runtime's own allocations (goroutine descriptors
				// reused or not, first-use initialization) move these by a
				// few objects in ~10^6 even with GC off, so they are
				// reported, not asserted.
				fmt.Fprintln(os.Stderr, "drift:", msg)
				continue
			}
			problems = append(problems, msg)
		}
	}
	if len(problems) == 0 {
		c.failed += out.failed
		return out.failed == 0
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	c.failed += out.attempted
	return false
}

func formatCounts(m map[string]uint64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, m[k])
	}
	return s
}
