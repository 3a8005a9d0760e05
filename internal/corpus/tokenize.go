package corpus

import (
	"strings"
	"unicode"
)

// minTokenLength is §4.6's length filter: the paper drops all words of
// fewer than 5 characters before TF-IDF.
const minTokenLength = 5

// headerWords are mail-transport artifacts that would otherwise
// dominate TF-IDF on raw messages; the paper removes "all known
// header-related words, for instance 'delivered' and 'charset'".
var headerWords = map[string]bool{
	"delivered": true, "charset": true, "received": true, "return": true, "subject": true, "content": true, "transfer-encoding": true,
	"encoding": true, "multipart": true, "boundary": true, "quoted": true, "printable": true, "mailer": true, "message-id": true,
	"messageid": true, "in-reply-to": true, "references": true,
	"mime-version": true, "version": true, "x-mailer": true, "sender": true, "envelope": true, "smtp": true, "esmtp": true, "helo": true,
	"localhost": true, "unsubscribe": true,
}

// Tokenize splits text into lowercase word tokens and applies the
// preprocessing of §4.6: tokens shorter than minTokenLength, known
// header-related words and the exact (lowercased) tokens in drop —
// honey handles, monitor markers — are removed. Tokens keep internal
// apostrophes/hyphens stripped; anything that is not a letter or digit
// separates tokens.
func Tokenize(text string, drop map[string]bool) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len([]rune(tok)) < minTokenLength || headerWords[tok] || drop[tok] {
			return
		}
		out = append(out, tok)
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// TermCounts tallies token frequencies.
func TermCounts(tokens []string) map[string]int {
	counts := make(map[string]int)
	for _, t := range tokens {
		counts[t]++
	}
	return counts
}
