// Package corpus generates the synthetic corporate email corpus used
// to seed honey accounts, standing in for the Enron dataset the paper
// used (Klimt & Yang's corpus of an energy company's corporate mail).
//
// The paper populates each honey account with corporate email, then
// rewrites it the same way we do here: distinct original recipients
// are mapped to the fictional personas that "own" the honey accounts,
// first/last names are replaced, every occurrence of the original
// company name becomes a fictitious one, and dates are shifted into
// the experiment window (§3.2). Because the real Enron text cannot be
// bundled, the generator synthesises corporate mail of the same
// flavour — an energy-trading company's meetings, transfers,
// contracts, reports and HR notices — with a vocabulary chosen so the
// corpus-level TF-IDF profile matches what Table 2 reports for the
// authors' seed data ("transfer", "company", "energy", "power",
// "information" rank high corpus-wide).
package corpus

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/rng"
)

// Persona is a fictional account owner: a random combination of
// popular first and last names, as in the paper (following their
// citation [25]).
type Persona struct {
	First      string
	Last       string
	Email      string
	Title      string
	Department string
}

// FullName returns "First Last".
func (p Persona) FullName() string { return p.First + " " + p.Last }

// Handle returns the local part of the persona's address.
func (p Persona) Handle() string {
	if i := strings.IndexByte(p.Email, '@'); i > 0 {
		return p.Email[:i]
	}
	return p.Email
}

// Message is one email in a mailbox.
type Message struct {
	From    string
	To      string
	Subject string
	Body    string
	Date    time.Time
}

// popularFirst and popularLast are common given/family names; honey
// identities are random combinations of them.
var popularFirst = []string{
	"James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael",
	"Linda", "William", "Elizabeth", "David", "Barbara", "Richard",
	"Susan", "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen",
	"Christopher", "Nancy", "Daniel", "Lisa", "Matthew", "Margaret",
	"Anthony", "Betty", "Mark", "Sandra", "Donald", "Ashley", "Steven",
	"Kimberly", "Paul", "Emily", "Andrew", "Donna", "Joshua", "Michelle",
}

var popularLast = []string{
	"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
	"Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
	"Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson",
	"Martin", "Lee", "Perez", "Thompson", "White", "Harris", "Sanchez",
	"Clark", "Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen",
	"King", "Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores",
}

var titles = []string{
	"Vice President", "Director", "Senior Trader", "Trader", "Analyst",
	"Senior Analyst", "Manager", "Senior Manager", "Associate",
	"Coordinator", "Counsel", "Accountant",
}

var departments = []string{
	"Trading", "Risk Management", "Regulatory Affairs", "Legal",
	"Finance", "Operations", "Human Resources", "Power Marketing",
	"Gas Marketing", "Information Technology",
}

// Locale is a decoy-identity locale: the name pools and mail domain
// honey personas are drawn from. Email Babel (Bernard-Jones, Onaolapo
// & Stringhini 2017) showed the same honeypot design answers new
// questions when the decoy population is language-localized; locales
// vary the identity layer (names, domain) while the mail corpus stays
// the synthetic corporate-English stand-in.
type Locale struct {
	Name   string
	Domain string
	First  []string
	Last   []string
}

// DefaultLocale is the seed deployment's English-name identity pool.
func DefaultLocale() Locale {
	return Locale{Name: "en", Domain: "honeymail.example", First: popularFirst, Last: popularLast}
}

// locales indexes the built-in identity pools by name.
var locales = map[string]Locale{
	"en": DefaultLocale(),
	"es": {
		Name: "es", Domain: "correomiel.example",
		First: []string{
			"Antonio", "Maria", "Jose", "Carmen", "Manuel", "Ana", "Francisco",
			"Isabel", "Juan", "Dolores", "Javier", "Pilar", "Miguel", "Teresa",
			"Rafael", "Rosa", "Carlos", "Lucia", "Daniel", "Elena", "Alejandro",
			"Marta", "Fernando", "Cristina",
		},
		Last: []string{
			"Garcia", "Fernandez", "Gonzalez", "Rodriguez", "Lopez", "Martinez",
			"Sanchez", "Perez", "Gomez", "Martin", "Jimenez", "Ruiz",
			"Hernandez", "Diaz", "Moreno", "Alvarez", "Romero", "Navarro",
			"Torres", "Dominguez", "Vazquez", "Ramos", "Gil", "Serrano",
		},
	},
	"de": {
		Name: "de", Domain: "honigpost.example",
		First: []string{
			"Hans", "Anna", "Peter", "Ursula", "Michael", "Monika", "Thomas",
			"Petra", "Andreas", "Sabine", "Wolfgang", "Renate", "Klaus",
			"Karin", "Juergen", "Brigitte", "Stefan", "Claudia", "Uwe",
			"Susanne", "Frank", "Gabriele", "Markus", "Heike",
		},
		Last: []string{
			"Mueller", "Schmidt", "Schneider", "Fischer", "Weber", "Meyer",
			"Wagner", "Becker", "Schulz", "Hoffmann", "Schaefer", "Koch",
			"Bauer", "Richter", "Klein", "Wolf", "Schroeder", "Neumann",
			"Schwarz", "Zimmermann", "Braun", "Krueger", "Hofmann", "Hartmann",
		},
	},
	"fr": {
		Name: "fr", Domain: "mielcourrier.example",
		First: []string{
			"Jean", "Marie", "Pierre", "Nathalie", "Michel", "Isabelle",
			"Philippe", "Sylvie", "Alain", "Catherine", "Nicolas", "Francoise",
			"Christophe", "Valerie", "Laurent", "Christine", "Patrick",
			"Sandrine", "Olivier", "Veronique", "Julien", "Celine", "David",
			"Sophie",
		},
		Last: []string{
			"Martin", "Bernard", "Dubois", "Thomas", "Robert", "Richard",
			"Petit", "Durand", "Leroy", "Moreau", "Simon", "Laurent",
			"Lefebvre", "Michel", "Garcia", "David", "Bertrand", "Roux",
			"Vincent", "Fournier", "Morel", "Girard", "Andre", "Mercier",
		},
	},
}

// LocaleByName resolves a built-in locale ("en", "es", "de", "fr").
func LocaleByName(name string) (Locale, bool) {
	l, ok := locales[name]
	return l, ok
}

// LocaleNames lists the built-in locale names, sorted.
func LocaleNames() []string {
	out := make([]string, 0, len(locales))
	for k := range locales {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewPersonas draws n distinct personas on the given mail domain from
// the default English name pools.
func NewPersonas(src *rng.Source, n int, domain string) []Persona {
	loc := DefaultLocale()
	loc.Domain = domain
	return NewPersonasLocale(src, n, loc)
}

// NewPersonasLocale draws n distinct personas from a locale's name
// pools on its mail domain. For the default locale the draw sequence
// is identical to NewPersonas, so localization is a pure overlay on
// the seed behaviour.
func NewPersonasLocale(src *rng.Source, n int, loc Locale) []Persona {
	if len(loc.First) == 0 || len(loc.Last) == 0 {
		def := DefaultLocale()
		loc.First, loc.Last = def.First, def.Last
	}
	if loc.Domain == "" {
		loc.Domain = DefaultLocale().Domain
	}
	out := make([]Persona, 0, n)
	used := map[string]bool{}
	for len(out) < n {
		first := rng.Pick(src, loc.First)
		last := rng.Pick(src, loc.Last)
		email := strings.ToLower(first) + "." + strings.ToLower(last) + "@" + loc.Domain
		if used[email] {
			// Disambiguate collisions with a numeric suffix, as real
			// providers do.
			email = fmt.Sprintf("%s.%s%d@%s", strings.ToLower(first), strings.ToLower(last), len(out), loc.Domain)
		}
		used[email] = true
		out = append(out, Persona{
			First:      first,
			Last:       last,
			Email:      email,
			Title:      rng.Pick(src, titles),
			Department: rng.Pick(src, departments),
		})
	}
	return out
}

// PersonaAt draws one persona from a locale's pools — the order-free
// per-account form of NewPersonasLocale used by the honeynet's
// parallel setup layout. The draw sequence per persona is identical
// (first, last, title, department); what differs is that each call
// reads a caller-supplied source, so personas derive from independent
// per-account substreams instead of one shared cursor. Email
// collisions are the caller's to resolve, in a deterministic serial
// pass, via SuffixEmail.
func PersonaAt(src *rng.Source, loc Locale) Persona {
	if len(loc.First) == 0 || len(loc.Last) == 0 {
		def := DefaultLocale()
		loc.First, loc.Last = def.First, def.Last
	}
	if loc.Domain == "" {
		loc.Domain = DefaultLocale().Domain
	}
	first := rng.Pick(src, loc.First)
	last := rng.Pick(src, loc.Last)
	return Persona{
		First:      first,
		Last:       last,
		Email:      strings.ToLower(first) + "." + strings.ToLower(last) + "@" + loc.Domain,
		Title:      rng.Pick(src, titles),
		Department: rng.Pick(src, departments),
	}
}

// SuffixEmail returns the persona's address disambiguated with a
// numeric suffix, the same convention NewPersonasLocale (and real
// providers) use for name collisions; n is the caller's collision
// counter (the honeynet uses the account index).
func (p Persona) SuffixEmail(n int) string {
	domain := ""
	if at := strings.IndexByte(p.Email, '@'); at >= 0 {
		domain = p.Email[at+1:]
	}
	return fmt.Sprintf("%s.%s%d@%s", strings.ToLower(p.First), strings.ToLower(p.Last), n, domain)
}

// template is a mail blueprint. Slots of the form {word} are filled
// per message: {peer} a colleague's first name, {company} the
// fictitious company, plus topic-specific slots.
type template struct {
	subject string
	body    []string // paragraphs
	weight  float64  // relative frequency in a mailbox
}

// fills maps slot names to candidate values.
var fills = map[string][]string{
	"counterparty": {"Northfield Utilities", "Lakeshore Power", "Westgate Gas Partners", "Caprock Transmission", "Bluewater Municipal", "Harborline Electric"},
	"region":       {"Midwest", "Gulf Coast", "Northeast", "Western", "Southeast"},
	"commodity":    {"power", "natural gas", "electricity", "capacity"},
	"month":        {"January", "February", "March", "April", "May", "June", "July", "August", "September", "October", "November", "December"},
	"weekday":      {"Monday", "Tuesday", "Wednesday", "Thursday", "Friday"},
	"amount":       {"45,000", "128,500", "310,000", "75,250", "22,800", "560,000", "94,300"},
	"contractno":   {"EC-2210", "EC-5431", "PG-1092", "PW-7765", "TR-3318", "RM-9054"},
	"quarter":      {"first quarter", "second quarter", "third quarter", "fourth quarter"},
	"system":       {"scheduling system", "settlement system", "trading platform", "reporting database"},
	"city":         {"Houston", "Chicago", "Portland", "Denver", "Calgary"},
}

// businessTemplates is the library of corporate mail. The vocabulary
// deliberately makes "transfer", "please", "original", "company",
// "would", "energy", "information", "about", "email" and "power"
// corpus-frequent, matching the right-hand column of Table 2.
var businessTemplates = []template{
	{
		subject: "Re: {commodity} schedule for {month}",
		weight:  3,
		body: []string{
			"Attached please find the revised {commodity} delivery schedule for {month}. The original version understated the {region} volumes, so please discard it and work from this one.",
			"Let me know if the counterparties have any questions about the schedule before we confirm with {counterparty}.",
		},
	},
	{
		subject: "Wire transfer confirmation - {contractno}",
		weight:  3,
		body: []string{
			"The wire transfer of ${amount} under contract {contractno} was released this morning. Treasury should see the funds settle by {weekday}.",
			"Please confirm receipt with the bank and copy the settlements group so the transfer is booked against the right account.",
		},
	},
	{
		subject: "Meeting {weekday}: {region} {commodity} position",
		weight:  3,
		body: []string{
			"Could we get together {weekday} morning to walk through the {region} {commodity} position? I would like to review the hedges before the {quarter} close.",
			"If {weekday} does not work for the whole group, please propose another time. The conference room on twelve is available all week.",
		},
	},
	{
		subject: "{counterparty} master agreement",
		weight:  2,
		body: []string{
			"Legal has finished its review of the {counterparty} master agreement. The remaining open issue is the collateral threshold; their credit group would prefer a higher number than the company standard.",
			"Please send me the original signature pages when they arrive so we can close the file on this agreement.",
		},
	},
	{
		subject: "Draft: {quarter} earnings information",
		weight:  2,
		body: []string{
			"Here is the draft earnings information package for the {quarter}. The energy trading results are preliminary until risk management signs off on the curve marks.",
			"Please treat this information as confidential within the company until the release goes out.",
		},
	},
	{
		subject: "Power plant outage - {region}",
		weight:  2,
		body: []string{
			"The {region} power plant came offline last night for an unplanned repair. Operations expects the unit back within the week, but the power desk should assume reduced capacity through {weekday}.",
			"Scheduling would appreciate timely updates so the affected deliveries can be rebooked with {counterparty}.",
		},
	},
	{
		subject: "Re: {system} access request",
		weight:  2,
		body: []string{
			"Your access to the {system} has been approved by information technology. Please change the temporary password at first login and review the acceptable use policy on the company intranet.",
			"If anything about the account looks wrong, reply to this email and we will correct it.",
		},
	},
	{
		subject: "Expense report - {city} trip",
		weight:  2,
		body: []string{
			"I filed the expense report for the {city} trip. The airfare was higher than usual because the travel was booked late; accounting may ask about the difference against the original estimate.",
			"Receipts are attached. Please approve when you have a moment so the reimbursement hits this pay cycle.",
		},
	},
	{
		subject: "{commodity} price curve update",
		weight:  2,
		body: []string{
			"Research published an updated {commodity} price curve this morning. The forward months moved up on colder weather forecasts for the {region}.",
			"Traders should refresh their marks before the close; risk management would like the books to reflect the new curve today.",
		},
	},
	{
		subject: "Re: headcount planning for {department_topic}",
		weight:  1,
		body: []string{
			"Human resources asked each group to confirm its headcount plan for next year. Our request adds one analyst and one scheduler, which management supported in the budget review.",
			"Please send me any changes before {weekday}; after that the plan goes to the executive committee.",
		},
	},
	{
		subject: "Regulatory filing due {weekday}",
		weight:  1,
		body: []string{
			"A reminder that the quarterly regulatory filing is due {weekday}. Regulatory affairs still needs the transmission volumes and the {region} settlement information.",
			"The commission was unhappy about the late filing last {quarter}, so please get the numbers over early this time.",
		},
	},
	{
		subject: "Holiday schedule and payroll dates",
		weight:  1,
		body: []string{
			"Payroll will run one day early around the {month} holiday. Direct deposit payments should arrive on the usual schedule; paper checks will be in the {city} office on {weekday}.",
			"The holiday schedule for the rest of the year is posted on the company intranet under human resources.",
		},
	},
	{
		subject: "Gas pipeline nomination window",
		weight:  1,
		body: []string{
			"The pipeline moved the nomination window up two hours for the {month} cycle. Gas scheduling needs final volumes from the desk by noon; late nominations get bumped to the evening cycle.",
			"Please make sure the backup scheduler has access to the {system} in case the desk is shorthanded.",
		},
	},
	{
		subject: "Audit request: settlement documentation",
		weight:  1,
		body: []string{
			"The auditors requested the settlement documentation for {counterparty} covering the {quarter}. They want the original invoices and the wire transfer confirmations, not copies.",
			"Accounting will coordinate the document pull; please route any auditor questions about trading positions through risk management.",
		},
	},
}

// GeneratorConfig parameterises a Generator.
type GeneratorConfig struct {
	// Company is the fictitious company name substituted everywhere,
	// as the paper replaced "Enron" (§3.2).
	Company string
	// Domain is the corporate mail domain for non-honey correspondents.
	Domain string
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() GeneratorConfig {
	return GeneratorConfig{Company: "Solenix Energy", Domain: "solenix-energy.example"}
}

// Generator produces mailboxes for honey personas.
type Generator struct {
	cfg      GeneratorConfig
	src      *rng.Source
	weights  []float64
	contacts []Persona
	scratch  []byte          // render buffer, reused across messages
	offsets  []time.Duration // date-offset buffer, reused across mailboxes
	// text holds every subject and body this generator renders: each
	// is copied out of scratch into 16KiB blocks instead of getting an
	// allocation of its own.
	text colstore.Arena
}

// NewGenerator builds a Generator with a pool of corporate contacts
// that recur across mailboxes (distinct Enron correspondents were
// mapped to consistent fictional identities in the paper).
func NewGenerator(src *rng.Source, cfg GeneratorConfig) *Generator {
	if cfg.Company == "" || cfg.Domain == "" {
		cfg = DefaultConfig()
	}
	w := make([]float64, len(businessTemplates))
	for i, t := range businessTemplates {
		w[i] = t.weight
	}
	return &Generator{
		cfg:      cfg,
		src:      src,
		weights:  w,
		contacts: NewPersonas(src.Fork(), 40, cfg.Domain),
	}
}

// Company returns the fictitious company name in use.
func (g *Generator) Company() string { return g.cfg.Company }

// Mailbox generates n messages addressed to (or sent by) owner with
// dates uniformly spread over [start, end), newest last. Roughly a
// fifth of the messages are sent by the owner, the rest received —
// enough of both for the honey account's folders to look lived-in.
func (g *Generator) Mailbox(owner Persona, n int, start, end time.Time) []Message {
	if n <= 0 {
		return nil
	}
	return g.MailboxAppend(nil, owner, n, start, end)
}

// MailboxAppend is Mailbox appending into dst — setup loops pass a
// recycled buffer (dst[:0]) so seeding a fleet allocates one Message
// slice per worker, not one per account. Draw order is identical to
// Mailbox.
func (g *Generator) MailboxAppend(dst []Message, owner Persona, n int, start, end time.Time) []Message {
	if n <= 0 {
		return dst
	}
	if !end.After(start) {
		panic("corpus: Mailbox requires end after start")
	}
	span := end.Sub(start)
	// Deterministic, sorted offsets keep mailbox order chronological.
	if cap(g.offsets) < n {
		g.offsets = make([]time.Duration, n)
	}
	offsets := g.offsets[:n]
	for i := range offsets {
		offsets[i] = time.Duration(g.src.Float64() * float64(span))
	}
	sortDurations(offsets)
	for i := 0; i < n; i++ {
		peer := rng.Pick(g.src, g.contacts)
		msg := g.render(owner, peer, start.Add(offsets[i]))
		dst = append(dst, msg)
	}
	return dst
}

// Split returns a generator sharing this one's configuration,
// template weights and corporate-contact pool but drawing from src
// with private scratch buffers and its own text arena — one per setup
// worker, so parallel mailbox generation shares the contact
// identities without sharing any mutable state. src may be nil when
// the caller Reseeds before the first use.
func (g *Generator) Split(src *rng.Source) *Generator {
	return &Generator{cfg: g.cfg, src: src, weights: g.weights, contacts: g.contacts}
}

// Reseed redirects the generator's draws to src. The parallel setup
// layout reseeds one worker-local generator with each account's
// private substream, so every mailbox is a pure function of that
// account's stream.
func (g *Generator) Reseed(src *rng.Source) { g.src = src }

// segment is one piece of a compiled template: literal text, or a
// slot filled per message.
type segment struct {
	kind  segKind
	text  string   // segLiteral: the text itself
	cands []string // segFill: the slot's candidate values
}

type segKind uint8

const (
	segLiteral    segKind = iota
	segPeer               // {peer}: the colleague's first name
	segOwner              // {owner}: the mailbox owner's first name
	segCompany            // {company}: the fictitious company
	segDepartment         // {department_topic}: the owner's department, lowercased
	segFill               // a slot drawn from fills, one Pick per message
)

// compiledTemplate is a template parsed once into segments, so a
// message renders without scanning for braces or looking slots up.
type compiledTemplate struct {
	subject []segment
	body    [][]segment // paragraphs
}

// compiledTemplates is businessTemplates, compiled, index for index.
var compiledTemplates = compileTemplates(businessTemplates)

func compileTemplates(ts []template) []compiledTemplate {
	out := make([]compiledTemplate, len(ts))
	for i, t := range ts {
		out[i].subject = compile(t.subject)
		for _, para := range t.body {
			out[i].body = append(out[i].body, compile(para))
		}
	}
	return out
}

// compile splits s at its {slot}s, left to right. A '{' without a
// closing '}' starts literal text that runs to the end, and an unknown
// slot compiles to its bare word: the braces drop, the word stays.
func compile(s string) []segment {
	var segs []segment
	literal := func(text string) {
		if text != "" {
			segs = append(segs, segment{kind: segLiteral, text: text})
		}
	}
	for {
		i := strings.IndexByte(s, '{')
		if i < 0 {
			literal(s)
			return segs
		}
		j := strings.IndexByte(s[i:], '}')
		if j < 0 {
			literal(s)
			return segs
		}
		literal(s[:i])
		slot := s[i+1 : i+j]
		switch slot {
		case "peer":
			segs = append(segs, segment{kind: segPeer})
		case "owner":
			segs = append(segs, segment{kind: segOwner})
		case "company":
			segs = append(segs, segment{kind: segCompany})
		case "department_topic":
			segs = append(segs, segment{kind: segDepartment})
		default:
			if cands, ok := fills[slot]; ok {
				segs = append(segs, segment{kind: segFill, cands: cands})
			} else {
				literal(slot)
			}
		}
		s = s[i+j+1:]
	}
}

// render instantiates one template for the given owner/peer pair. The
// draws are one Categorical for the template, one Bool for the
// direction, then one Pick per fill slot, subject first and then the
// paragraphs, left to right. Subject and body are rendered into a
// reused scratch buffer and copied from there into the generator's
// text arena, so a message costs no allocation of its own.
func (g *Generator) render(owner, peer Persona, date time.Time) Message {
	tpl := &compiledTemplates[g.src.Categorical(g.weights)]
	sent := g.src.Bool(0.2) // owner is the sender for ~20% of messages
	from, to := peer, owner
	if sent {
		from, to = owner, peer
	}
	g.scratch = g.fill(g.scratch[:0], tpl.subject, owner, peer)
	subject := g.text.CopyBytes(g.scratch)
	g.scratch = g.scratch[:0]
	g.scratch = append(g.scratch, "Dear "...)
	g.scratch = append(g.scratch, to.First...)
	g.scratch = append(g.scratch, ",\n\n"...)
	for _, para := range tpl.body {
		g.scratch = g.fill(g.scratch, para, owner, peer)
		g.scratch = append(g.scratch, "\n\n"...)
	}
	g.scratch = append(g.scratch, "Regards,\n"...)
	g.scratch = append(g.scratch, from.First...)
	g.scratch = append(g.scratch, ' ')
	g.scratch = append(g.scratch, from.Last...)
	g.scratch = append(g.scratch, '\n')
	g.scratch = append(g.scratch, from.Title...)
	g.scratch = append(g.scratch, ", "...)
	g.scratch = append(g.scratch, from.Department...)
	g.scratch = append(g.scratch, '\n')
	g.scratch = append(g.scratch, g.cfg.Company...)
	g.scratch = append(g.scratch, '\n')
	return Message{
		From:    from.Email,
		To:      to.Email,
		Subject: subject,
		Body:    g.text.CopyBytes(g.scratch),
		Date:    date,
	}
}

// fill appends the segments to dst with their slots filled.
func (g *Generator) fill(dst []byte, segs []segment, owner, peer Persona) []byte {
	for i := range segs {
		seg := &segs[i]
		switch seg.kind {
		case segLiteral:
			dst = append(dst, seg.text...)
		case segPeer:
			dst = append(dst, peer.First...)
		case segOwner:
			dst = append(dst, owner.First...)
		case segCompany:
			dst = append(dst, g.cfg.Company...)
		case segDepartment:
			dst = appendLower(dst, owner.Department)
		case segFill:
			dst = append(dst, rng.Pick(g.src, seg.cands)...)
		}
	}
	return dst
}

// appendLower appends the ASCII-lowercased s without an intermediate
// string (department names are plain ASCII).
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

func sortDurations(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}
