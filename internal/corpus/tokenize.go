package corpus

import (
	"strings"
	"unicode"
)

// TokenizeOptions controls the preprocessing applied before TF-IDF,
// mirroring §4.6 of the paper: words shorter than MinLength are
// dropped, known header-related words are removed, and caller-supplied
// handles (honey email local parts) and signalling tokens injected by
// the monitoring infrastructure are filtered out.
type TokenizeOptions struct {
	// MinLength drops tokens shorter than this many characters. The
	// paper filters out all words of fewer than 5 characters.
	MinLength int
	// DropWords removes extra exact tokens (lowercased) beyond the
	// built-in header word list — honey handles, monitor markers.
	DropWords map[string]bool
	// KeepHeaderWords disables the built-in header-word filter; the
	// experiments never set this, but tests exercise it.
	KeepHeaderWords bool
}

// DefaultTokenizeOptions returns the paper's preprocessing settings.
func DefaultTokenizeOptions() TokenizeOptions {
	return TokenizeOptions{MinLength: 5}
}

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

// Tokenize splits text into lowercase word tokens under the given
// options. Tokens keep internal apostrophes/hyphens stripped; anything
// that is not a letter or digit separates tokens.
func Tokenize(text string, opts TokenizeOptions) []string {
	if opts.MinLength <= 0 {
		opts.MinLength = 1
	}
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len([]rune(tok)) < opts.MinLength {
			return
		}
		if !opts.KeepHeaderWords && headerWords[tok] {
			return
		}
		if opts.DropWords != nil && opts.DropWords[tok] {
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
