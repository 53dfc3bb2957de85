// Discover: run the paper's rule-generation pipeline (§4) at laptop scale
// and print the machine-found rewrite rules with their most-relaxed
// constraint sets.
//
// The run is budgeted and cancellable: the budget interrupts the proof in
// flight (not just the next pair boundary).
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"wetune"
)

func main() {
	size := flag.Int("size", 2, "max template size (paper: 4)")
	budget := flag.Duration("budget", 45*time.Second, "search budget")
	flag.Parse()

	fmt.Printf("enumerating templates up to size %d and searching for rules (budget %v)...\n",
		*size, *budget)
	ctx, cancel := context.WithTimeout(context.Background(), *budget)
	defer cancel()
	res := wetune.Discover(wetune.DiscoveryOptions{
		MaxTemplateSize: *size,
		Context:         ctx,
		Progress: func(p wetune.DiscoveryProgress) {
			if p.Stage == "done" {
				fmt.Printf("  stage timings: enumeration %v, total %v\n",
					p.Stats.TemplateElapsed.Round(time.Millisecond),
					p.Stats.Elapsed.Round(time.Millisecond))
			}
		},
	})
	fmt.Printf("templates: %d, pairs tried: %d, verifier calls: %d\n",
		res.Stats.Templates, res.Stats.PairsTried, res.Stats.ProverCalls)
	fmt.Printf("discovered %d rules:\n\n", len(res.Rules))
	for i, r := range res.Rules {
		fmt.Printf("%3d. %s\n  => %s\n     under %s\n\n", i+1, r.Source, r.Destination, r.Constraints)
	}

	// Every discovered rule is re-checked here — discovery only emits rules
	// the built-in verifier proved, so this must print all-verified.
	verified := 0
	for _, r := range res.Rules {
		if wetune.VerifyRule(r.AsRule) == wetune.Verified {
			verified++
		}
	}
	fmt.Printf("re-verification: %d/%d rules verified\n", verified, len(res.Rules))
}
