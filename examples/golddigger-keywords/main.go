// Gold-digger keyword inference (§4.6 / Table 2): run a deployment in
// which attackers search for sensitive terms, then use the TF-IDF
// pipeline to recover what they searched for — comparing against the
// ground-truth search logs the simulator keeps (a signal the paper's
// authors did NOT have).
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/honeynet"
	"repro/internal/report"
)

func main() {
	exp, err := honeynet.New(honeynet.Config{
		Seed: 7,
		Plan: []honeynet.GroupSpec{
			{ID: 1, Count: 15, Channel: analysis.OutletPaste, Hint: analysis.HintNone, Label: "paste"},
			{ID: 3, Count: 15, Channel: analysis.OutletForum, Hint: analysis.HintNone, Label: "forums"},
		},
		Duration:       120 * 24 * time.Hour,
		MailboxSize:    60,
		ScanInterval:   30 * time.Minute,
		ScrapeInterval: 3 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.RunAll(); err != nil {
		log.Fatal(err)
	}

	agg, err := exp.Aggregates()
	if err != nil {
		log.Fatal(err)
	}
	result := agg.KeywordInference(exp.SeededContents(), exp.DropWords())
	fmt.Println(report.Table2(result.TopSearched(10), result.TopCorpus(10)))

	// Ground truth: what did attackers actually type into the search
	// box? (The simulator journals it; a real deployment could not.)
	truth := map[string]int{}
	for _, a := range exp.Assignments() {
		for _, q := range exp.Service(a.Account).SearchLog(a.Account) {
			truth[q]++
		}
	}
	type kv struct {
		q string
		n int
	}
	var ranked []kv
	for q, n := range truth {
		ranked = append(ranked, kv{q, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].q < ranked[j].q
	})
	fmt.Println("Ground-truth search queries (simulator journal):")
	for i, r := range ranked {
		if i >= 10 {
			break
		}
		fmt.Printf("  %-15s %d\n", r.q, r.n)
	}

	// How well did the inference do? Count overlap of top-10 inferred
	// terms with actually-searched terms.
	inferred := result.TopSearched(10)
	hits := 0
	for _, row := range inferred {
		if truth[row.Term] > 0 {
			hits++
		}
	}
	fmt.Printf("\nInference quality: %d of top-10 inferred terms were actually searched\n", hits)
}
