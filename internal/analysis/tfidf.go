package analysis

import (
	"math"
	"sort"

	"repro/internal/corpus"
)

// TF-IDF keyword inference (§4.6). The corpus has exactly two
// documents: dA, all emails seeded into the honey accounts, and dR,
// the emails attackers read (including draft copies captured by the
// scripts). Words whose importance in dR far exceeds their importance
// in dA are the ones attackers most likely searched for.
//
// With only two documents, the textbook idf = log(N/df) zeroes every
// term that appears in both documents, which cannot produce Table 2's
// non-zero weights for shared terms like "transfer". We therefore use
// the smoothed variant idf = ln((1+N)/(1+df)) + 1 with L2-normalised
// per-document vectors — the convention of common TF-IDF
// implementations, consistent with the paper's statement that the
// output "ranges between 0 and 1".

// TFIDFResult holds the per-term weights of both documents.
type TFIDFResult struct {
	// ReadWeight and AllWeight are tfidf_R and tfidf_A per term.
	ReadWeight map[string]float64
	AllWeight  map[string]float64
}

// TermScore is one ranked row of Table 2.
type TermScore struct {
	Term  string
	Read  float64 // tfidf_R
	All   float64 // tfidf_A
	Delta float64 // tfidf_R − tfidf_A
}

// ComputeTFIDF evaluates the two-document TF-IDF over pre-tokenised
// documents.
func ComputeTFIDF(readTokens, allTokens []string) *TFIDFResult {
	readCounts := corpus.TermCounts(readTokens)
	allCounts := corpus.TermCounts(allTokens)

	df := make(map[string]int)
	for t := range readCounts {
		df[t]++
	}
	for t := range allCounts {
		df[t]++
	}
	const nDocs = 2.0
	idf := func(t string) float64 {
		return math.Log((1+nDocs)/(1+float64(df[t]))) + 1
	}
	weigh := func(counts map[string]int) map[string]float64 {
		// Sum the norm in sorted term order: float addition is not
		// associative, so a map-order sum can differ in the last bits
		// between two calls on the same tokens.
		terms := make([]string, 0, len(counts))
		for t := range counts {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		w := make(map[string]float64, len(counts))
		var norm float64
		for _, t := range terms {
			v := float64(counts[t]) * idf(t)
			w[t] = v
			norm += v * v
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for t := range w {
				w[t] /= norm
			}
		}
		return w
	}
	return &TFIDFResult{
		ReadWeight: weigh(readCounts),
		AllWeight:  weigh(allCounts),
	}
}

// TopSearched ranks terms by tfidf_R − tfidf_A (Table 2, left side):
// the terms attackers most likely searched for.
func (r *TFIDFResult) TopSearched(n int) []TermScore {
	return r.rank(n, func(t TermScore) float64 { return t.Delta })
}

// TopCorpus ranks terms by tfidf_A (Table 2, right side): the most
// important terms of the whole corpus.
func (r *TFIDFResult) TopCorpus(n int) []TermScore {
	return r.rank(n, func(t TermScore) float64 { return t.All })
}

func (r *TFIDFResult) rank(n int, key func(TermScore) float64) []TermScore {
	seen := make(map[string]bool, len(r.ReadWeight)+len(r.AllWeight))
	var rows []TermScore
	add := func(t string) {
		if seen[t] {
			return
		}
		seen[t] = true
		row := TermScore{Term: t, Read: r.ReadWeight[t], All: r.AllWeight[t]}
		row.Delta = row.Read - row.All
		rows = append(rows, row)
	}
	for t := range r.ReadWeight {
		add(t)
	}
	for t := range r.AllWeight {
		add(t)
	}
	sort.Slice(rows, func(i, j int) bool {
		ki, kj := key(rows[i]), key(rows[j])
		if ki != kj {
			return ki > kj
		}
		return rows[i].Term < rows[j].Term // deterministic ties
	})
	if n > len(rows) {
		n = len(rows)
	}
	return rows[:n]
}

// keywordInference runs the full §4.6 pipeline over read/draft events:
// build dR from the read messages (seeded content + draft bodies),
// build dA from all seeded content, preprocess exactly as the paper
// (≥5 characters, header words removed, honey handles and monitor
// markers dropped), and return the TF-IDF result. TF-IDF weighs term
// *counts*, so the event order never matters.
func keywordInference(reads []ReadEvent, drafts []DraftEvent, contents ContentsView, dropWords []string) *TFIDFResult {
	opts := corpus.DefaultTokenizeOptions()
	if len(dropWords) > 0 {
		opts.DropWords = make(map[string]bool, len(dropWords))
		for _, w := range dropWords {
			opts.DropWords[w] = true
		}
	}
	// Subject and body tokenize separately here; the tokenizer splits
	// on the newline that used to join them, so the term counts — the
	// only thing TF-IDF consumes — are unchanged.
	var readTokens, allTokens []string
	contents.Each(func(_ string, _ int64, subject, body string) {
		allTokens = append(allTokens, corpus.Tokenize(subject, opts)...)
		allTokens = append(allTokens, corpus.Tokenize(body, opts)...)
	})
	// Attacker-authored drafts are known only from the script's draft
	// copies; index them so later reads of those drafts contribute
	// their text to dR. This is exactly how bitcoin vocabulary entered
	// the paper's read document (§4.6): the blackmailer abandoned
	// ransom drafts, other criminals read them, and the monitoring
	// picked the terms up. Table 2 shows tfidf_A(bitcoin) = 0.0, so
	// draft text stays out of the "all emails" document.
	draftBodies := make(map[string]map[int64]string)
	for _, d := range drafts {
		m, ok := draftBodies[d.Account]
		if !ok {
			m = make(map[int64]string)
			draftBodies[d.Account] = m
		}
		m[d.Message] = d.Body
	}
	for _, r := range reads {
		if subject, body, ok := contents.Message(r.Account, r.Message); ok {
			readTokens = append(readTokens, corpus.Tokenize(subject, opts)...)
			readTokens = append(readTokens, corpus.Tokenize(body, opts)...)
		} else if body, ok := draftBodies[r.Account][r.Message]; ok {
			readTokens = append(readTokens, corpus.Tokenize(body, opts)...)
		}
	}
	for _, d := range drafts {
		readTokens = append(readTokens, corpus.Tokenize(d.Body, opts)...)
	}
	return ComputeTFIDF(readTokens, allTokens)
}
