// Discover: run the paper's rule-generation pipeline (§4) at laptop scale
// and print the machine-found rewrite rules with their most-relaxed
// constraint sets.
//
// The run is budgeted and cancellable: the budget interrupts the proof in
// flight (not just the next pair boundary), and a second pass over the same
// templates is answered from the shared proof cache without re-proving.
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
	// discover runs one pass under its own budget: the context's timeout.
	discover := func(opts wetune.DiscoveryOptions) *wetune.DiscoveryResult {
		ctx, cancel := context.WithTimeout(context.Background(), *budget)
		defer cancel()
		opts.Context = ctx
		return wetune.Discover(opts)
	}
	res := discover(wetune.DiscoveryOptions{
		MaxTemplateSize: *size,
		Progress: func(p wetune.DiscoveryProgress) {
			if p.Stage == "done" {
				fmt.Printf("  stage timings: enumeration %v, total %v\n",
					p.Stats.TemplateElapsed.Round(time.Millisecond),
					p.Stats.Elapsed.Round(time.Millisecond))
			}
		},
	})
	fmt.Printf("templates: %d, pairs tried: %d, verifier calls: %d, cache hits: %d\n",
		res.Templates, res.PairsTried, res.ProverCalls, res.CacheHits)
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

	// A warm re-run over the same template set reuses every verdict from the
	// shared proof cache: same rules, no prover calls.
	warm := discover(wetune.DiscoveryOptions{MaxTemplateSize: *size})
	fmt.Printf("warm re-run: %d rules, %d prover calls, %d cache hits\n",
		len(warm.Rules), warm.ProverCalls, warm.CacheHits)
}
