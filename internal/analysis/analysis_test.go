package analysis

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/stats"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

func mkAccess(account, cookie string, outlet Outlet, first, last time.Time) Access {
	return Access{
		Account: account, Cookie: cookie, Outlet: outlet,
		First: first, Last: last, LeakTime: epoch,
	}
}

func TestClassifyCurious(t *testing.T) {
	ds := &Dataset{Accesses: []Access{mkAccess("a", "c1", OutletPaste, epoch, epoch.Add(time.Minute))}}
	cs := Classify(ds)
	if len(cs) != 1 || cs[0].Classes != Curious {
		t.Fatalf("classes = %v", cs)
	}
	counts := CountClasses(cs)
	if counts.Curious != 1 || counts.GoldDigger != 0 {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestClassifyAttributionByWindow(t *testing.T) {
	ds := &Dataset{
		Accesses: []Access{
			mkAccess("a", "c1", OutletPaste, epoch, epoch.Add(30*time.Minute)),
			mkAccess("a", "c2", OutletPaste, epoch.Add(2*time.Hour), epoch.Add(3*time.Hour)),
		},
		Actions: []Action{
			{Time: epoch.Add(10 * time.Minute), Account: "a", Kind: ActionRead, Message: 1},
			{Time: epoch.Add(2*time.Hour + 30*time.Minute), Account: "a", Kind: ActionSent, Message: 2},
		},
	}
	cs := Classify(ds)
	byCookie := map[string]Class{}
	for _, c := range cs {
		byCookie[c.Access.Cookie] = c.Classes
	}
	if !byCookie["c1"].Has(GoldDigger) || byCookie["c1"].Has(Spammer) {
		t.Fatalf("c1 = %v", byCookie["c1"])
	}
	if !byCookie["c2"].Has(Spammer) || byCookie["c2"].Has(GoldDigger) {
		t.Fatalf("c2 = %v", byCookie["c2"])
	}
}

func TestClassifySlackAbsorbsScanDelay(t *testing.T) {
	// Notification arrives 9 minutes after the access window closed
	// (scan trigger latency): still attributed.
	ds := &Dataset{
		Accesses: []Access{mkAccess("a", "c1", OutletForum, epoch, epoch.Add(5*time.Minute))},
		Actions:  []Action{{Time: epoch.Add(14 * time.Minute), Account: "a", Kind: ActionRead}},
	}
	cs := Classify(ds)
	if !cs[0].Classes.Has(GoldDigger) {
		t.Fatal("scan-delayed action not attributed")
	}
}

func TestClassifyFallbackAfterVisibilityLoss(t *testing.T) {
	// Action long after every window (activity page frozen by a
	// hijack): attaches to the latest prior access.
	ds := &Dataset{
		Accesses: []Access{
			mkAccess("a", "old", OutletPaste, epoch, epoch.Add(time.Hour)),
			mkAccess("a", "recent", OutletPaste, epoch.Add(2*time.Hour), epoch.Add(3*time.Hour)),
		},
		Actions: []Action{{Time: epoch.Add(48 * time.Hour), Account: "a", Kind: ActionSent}},
		PasswordChanges: []PasswordChange{
			{Account: "a", Time: epoch.Add(47 * time.Hour)},
		},
	}
	cs := Classify(ds)
	byCookie := map[string]Class{}
	for _, c := range cs {
		byCookie[c.Access.Cookie] = c.Classes
	}
	if !byCookie["recent"].Has(Spammer) || !byCookie["recent"].Has(Hijacker) {
		t.Fatalf("fallback attribution = %v", byCookie)
	}
	if byCookie["old"] != Curious {
		t.Fatalf("old access polluted: %v", byCookie["old"])
	}
}

func TestCountClassesOverlap(t *testing.T) {
	// Account a reads and sends (gold digger + spammer), b changes the
	// password (hijacker), c only logs in (curious).
	ds := &Dataset{
		Accesses: []Access{
			mkAccess("a", "c1", OutletPaste, epoch, epoch.Add(time.Hour)),
			mkAccess("b", "c2", OutletPaste, epoch, epoch.Add(time.Hour)),
			mkAccess("c", "c3", OutletPaste, epoch, epoch.Add(time.Hour)),
		},
		Actions: []Action{
			{Time: epoch.Add(time.Minute), Account: "a", Kind: ActionRead},
			{Time: epoch.Add(2 * time.Minute), Account: "a", Kind: ActionSent},
		},
		PasswordChanges: []PasswordChange{{Account: "b", Time: epoch.Add(time.Minute)}},
	}
	counts := AggregatesFromDataset(ds).Classes
	if counts.Total != 3 || counts.Curious != 1 || counts.GoldDigger != 1 || counts.Spammer != 1 || counts.Hijacker != 1 {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestByOutletAndDurations(t *testing.T) {
	ds := &Dataset{
		Accesses: []Access{
			mkAccess("a", "c1", OutletPaste, epoch, epoch.Add(2*time.Hour)),
			mkAccess("b", "c2", OutletMalware, epoch, epoch.Add(30*time.Minute)),
		},
		Actions: []Action{{Time: epoch.Add(time.Minute), Account: "a", Kind: ActionRead}},
	}
	agg := AggregatesFromDataset(ds)
	per := agg.PerOutlet
	if per[OutletPaste].GoldDigger != 1 || per[OutletMalware].Curious != 1 {
		t.Fatalf("per-outlet = %+v", per)
	}
	// One 2-hour gold-digger access: past the 1 h probe, within 6 h.
	dur := agg.Durations["gold-digger"]
	if dur == nil || dur.N() != 1 || fracAt(dur, 1) != 0 || fracAt(dur, 6) != 1 {
		t.Fatalf("durations = %+v", agg.Durations)
	}
}

// fracAt reads a sketch's CDF at one of its probes.
func fracAt(sk *stats.ProbeSketch, probe float64) float64 {
	for i, p := range sk.Probes() {
		if p == probe {
			return sk.Frac(i)
		}
	}
	panic(fmt.Sprintf("no probe %g in %v", probe, sk.Probes()))
}

func TestTimeToFirstAccessAndTimeline(t *testing.T) {
	ds := &Dataset{Accesses: []Access{
		mkAccess("a", "c1", OutletPaste, epoch.Add(24*time.Hour), epoch.Add(25*time.Hour)),
		mkAccess("b", "c2", OutletForum, epoch.Add(48*time.Hour), epoch.Add(49*time.Hour)),
	}}
	agg := AggregatesFromDataset(ds)
	// The paste access came one day after the leak.
	if tt := agg.TimeToAccess[OutletPaste]; tt == nil || tt.N() != 1 || fracAt(tt, 1) != 1 {
		t.Fatalf("paste days = %v", agg.TimeToAccess)
	}
	tl := map[Outlet]map[int]int{OutletPaste: {0: 1}, OutletForum: {0: 1}}
	if !reflect.DeepEqual(agg.Timeline, tl) || agg.TimelineMax != 0 {
		t.Fatalf("timeline = %+v (max %d)", agg.Timeline, agg.TimelineMax)
	}
}

func TestTFIDFSharedTermsNonZero(t *testing.T) {
	read := []string{"bitcoin", "bitcoin", "payment", "transfer"}
	all := []string{"transfer", "transfer", "company", "energy", "payment"}
	r := ComputeTFIDF(read, all)
	if r.ReadWeight["transfer"] == 0 || r.AllWeight["transfer"] == 0 {
		t.Fatal("shared term zeroed out (need smoothed idf)")
	}
	if r.AllWeight["bitcoin"] != 0 {
		t.Fatal("bitcoin should be absent from dA")
	}
	top := r.TopSearched(2)
	if top[0].Term != "bitcoin" {
		t.Fatalf("top searched = %+v, want bitcoin first", top)
	}
}

func TestTFIDFWeightsBounded(t *testing.T) {
	f := func(a, b []byte) bool {
		toTokens := func(bs []byte) []string {
			var out []string
			for _, x := range bs {
				out = append(out, fmt.Sprintf("tok%d", x%16))
			}
			return out
		}
		ra, rb := toTokens(a), toTokens(b)
		if len(ra) == 0 || len(rb) == 0 {
			return true
		}
		r := ComputeTFIDF(ra, rb)
		for _, w := range r.ReadWeight {
			if w < 0 || w > 1+1e-9 {
				return false
			}
		}
		for _, w := range r.AllWeight {
			if w < 0 || w > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTFIDFReproducible: two calls on the same tokens return the same
// weights to the last bit, so Table 2 cannot print differently between
// two runs of one seed.
func TestTFIDFReproducible(t *testing.T) {
	// 13 terms with distinct counts; the odd ones appear in the read
	// document only, so two idf values mix in the norm.
	var read, all []string
	for i := 0; i < 13; i++ {
		term := fmt.Sprintf("term%02d", i)
		for j := 0; j < 3*i+1; j++ {
			read = append(read, term)
		}
		if i%2 == 0 {
			for j := 0; j < 7*i+2; j++ {
				all = append(all, term)
			}
		}
	}
	want := ComputeTFIDF(read, all)
	diff := 0
	for i := 0; i < 200; i++ {
		if got := ComputeTFIDF(read, all); !reflect.DeepEqual(got, want) {
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%d of 200 calls differ from the first", diff)
	}
}

func TestTopCorpusRanksCorpusWords(t *testing.T) {
	all := []string{"company", "company", "company", "energy", "energy", "power"}
	read := []string{"bitcoin"}
	r := ComputeTFIDF(read, all)
	top := r.TopCorpus(1)
	if top[0].Term != "company" {
		t.Fatalf("top corpus = %+v", top)
	}
}

func TestCvMSameDistribution(t *testing.T) {
	src := rng.New(1)
	x := make([]float64, 80)
	y := make([]float64, 70)
	for i := range x {
		x[i] = src.Normal(0, 1)
	}
	for i := range y {
		y[i] = src.Normal(0, 1)
	}
	res := CvMTest(x, y, 500, 42)
	if res.RejectAt001 {
		t.Fatalf("same-distribution samples rejected: %+v", res)
	}
	if res.P <= 0 || res.P > 1 {
		t.Fatalf("p out of range: %v", res.P)
	}
}

func TestCvMDifferentDistributions(t *testing.T) {
	src := rng.New(2)
	x := make([]float64, 80)
	y := make([]float64, 80)
	for i := range x {
		x[i] = src.Normal(0, 1)
	}
	for i := range y {
		y[i] = src.Normal(3, 1)
	}
	res := CvMTest(x, y, 500, 42)
	if !res.RejectAt001 {
		t.Fatalf("clearly different samples not rejected: %+v", res)
	}
}

func TestCvMStatisticProperties(t *testing.T) {
	// Symmetry: T(x,y) == T(y,x).
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1.5, 2.5, 3.5}
	if d := math.Abs(CvMStatistic(x, y) - CvMStatistic(y, x)); d > 1e-9 {
		t.Fatalf("asymmetry = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample accepted")
		}
	}()
	CvMStatistic(nil, y)
}

func TestDistanceVectorsGrouping(t *testing.T) {
	london := geo.LondonMidpoint
	mk := func(cookie string, outlet Outlet, hint Hint, pt geo.Point, hasPt bool) Access {
		a := mkAccess("a", cookie, outlet, epoch, epoch)
		a.Hint = hint
		a.Point = pt
		a.HasPoint = hasPt
		return a
	}
	ds := &Dataset{Accesses: []Access{
		mk("c1", OutletPaste, HintUK, geo.Point{Lat: 52, Lon: 0}, true),
		mk("c2", OutletPaste, HintNone, geo.Point{Lat: 48, Lon: 2}, true),
		mk("c3", OutletForum, HintUK, geo.Point{Lat: 50, Lon: 10}, true),
		mk("c4", OutletPaste, HintUK, geo.Point{}, false),                  // tor: skipped
		mk("c5", OutletMalware, HintNone, geo.Point{Lat: 1, Lon: 1}, true), // malware: skipped
		mk("c6", OutletPaste, HintUS, geo.Point{Lat: 41, Lon: -88}, true),  // other region: skipped for UK
	}}
	v := AggregatesFromDataset(ds).DistanceVectorsFor(HintUK)
	if len(v[GroupKey{OutletPaste, HintUK}]) != 1 || len(v[GroupKey{OutletPaste, HintNone}]) != 1 || len(v[GroupKey{OutletForum, HintUK}]) != 1 {
		t.Fatalf("vectors = %v", v)
	}
	got := v[GroupKey{OutletPaste, HintUK}][0]
	want := geo.HaversineKm(geo.Point{Lat: 52, Lon: 0}, london)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("distance = %v, want %v", got, want)
	}
}

func TestMedianRadiiAndSignificance(t *testing.T) {
	src := rng.New(3)
	var accesses []Access
	add := func(outlet Outlet, hint Hint, lat, lon float64, n int) {
		for i := 0; i < n; i++ {
			a := mkAccess("a", fmt.Sprintf("%v-%v-%d", outlet, hint, i), outlet, epoch, epoch)
			a.Hint = hint
			a.HasPoint = true
			a.Point = geo.Point{Lat: lat + src.Normal(0, 0.5), Lon: lon + src.Normal(0, 0.5)}
			accesses = append(accesses, a)
		}
	}
	// Paste+UK hint: near London. Paste no hint: far. Forum groups:
	// identical distribution (hint ignored by forum criminals).
	add(OutletPaste, HintUK, 51.5, -0.1, 40)
	add(OutletPaste, HintNone, 40, 30, 40)
	add(OutletForum, HintUK, 45, 20, 40)
	add(OutletForum, HintNone, 45, 20, 40)
	agg := AggregatesFromDataset(&Dataset{Accesses: accesses})
	radii := agg.MedianRadii(HintUK)
	var pasteHint, pastePlain float64
	for _, r := range radii {
		if r.Group.Outlet == OutletPaste && r.Group.Hint == HintUK {
			pasteHint = r.MedianKm
		}
		if r.Group.Outlet == OutletPaste && r.Group.Hint == HintNone {
			pastePlain = r.MedianKm
		}
	}
	if pasteHint >= pastePlain {
		t.Fatalf("paste hint median %v >= plain %v", pasteHint, pastePlain)
	}
	sig := agg.LocationSignificance(300, 7)
	var pasteRej, forumRej bool
	for _, s := range sig {
		if s.Region != HintUK {
			continue
		}
		if s.Outlet == OutletPaste {
			pasteRej = s.Result.RejectAt001
		}
		if s.Outlet == OutletForum {
			forumRej = s.Result.RejectAt001
		}
	}
	if !pasteRej {
		t.Fatal("paste UK comparison should reject (clearly different)")
	}
	if forumRej {
		t.Fatal("forum UK comparison should not reject (same distribution)")
	}
}

func TestSystemConfiguration(t *testing.T) {
	chromeUA := "Mozilla/5.0 (Windows NT 6.1) Chrome/43.0 Safari/537.36"
	androidUA := "Mozilla/5.0 (Linux; Android 5.1) Chrome/43.0 Mobile Safari/537.36"
	mk := func(cookie string, outlet Outlet, ua string) Access {
		a := mkAccess("a", cookie, outlet, epoch, epoch)
		a.UserAgent = ua
		return a
	}
	ds := &Dataset{Accesses: []Access{
		mk("c1", OutletMalware, ""),
		mk("c2", OutletMalware, ""),
		mk("c3", OutletPaste, chromeUA),
		mk("c4", OutletPaste, androidUA),
	}}
	rows := AggregatesFromDataset(ds).ConfigRows()
	byOutlet := map[Outlet]ConfigRow{}
	for _, r := range rows {
		byOutlet[r.Outlet] = r
	}
	mal := byOutlet[OutletMalware]
	if mal.EmptyUA != 2 || mal.Android != 0 || mal.Desktop != 0 {
		t.Fatalf("malware config = %+v", mal)
	}
	paste := byOutlet[OutletPaste]
	if paste.Android != 1 || paste.Desktop != 1 {
		t.Fatalf("paste config = %+v", paste)
	}
}

func TestSummarizeOverview(t *testing.T) {
	mk := func(cookie, ip, country string, hasPt bool) Access {
		a := mkAccess("a", cookie, OutletPaste, epoch, epoch)
		a.IP, a.Country, a.HasPoint = ip, country, hasPt
		return a
	}
	ds := &Dataset{
		Accesses: []Access{
			mk("c1", "1.1.1.1", "France", true),
			mk("c2", "2.2.2.2", "Japan", true),
			mk("c3", "3.3.3.3", "", false),
		},
		Actions: []Action{
			{Account: "a", Kind: ActionRead, Message: 1},
			{Account: "a", Kind: ActionRead, Message: 2},
			{Account: "a", Kind: ActionSent, Message: 3},
			{Account: "a", Kind: ActionDraft, Message: 4},
			{Account: "a", Kind: ActionDraft, Message: 4}, // same draft edited twice
		},
		Blacklisted:       map[string]bool{"2.2.2.2": true},
		SuspendedAccounts: 5,
	}
	o := AggregatesFromDataset(ds).Overview()
	if o.UniqueAccesses != 3 || o.EmailsRead != 2 || o.EmailsSent != 1 || o.UniqueDrafts != 1 {
		t.Fatalf("overview = %+v", o)
	}
	if o.Countries != 2 || o.WithLocation != 2 || o.WithoutLocation != 1 || o.BlacklistedIPs != 1 || o.SuspendedAccounts != 5 {
		t.Fatalf("overview = %+v", o)
	}
}

func TestKeywordInferencePipeline(t *testing.T) {
	contents := MapContents{
		"a": {
			1: "Wire transfer confirmation: the payment settled against the company account.",
			2: "The company energy report for the quarter is attached with power figures.",
			3: "Meeting about energy policy and company strategy with information for everyone.",
		},
	}
	ds := &Dataset{
		Actions: []Action{
			{Account: "a", Kind: ActionRead, Message: 1},
			{Account: "a", Kind: ActionDraft, Message: 99,
				Body: "Send two bitcoin to the wallet listed below. Buy from a localbitcoins seller with good results. Payment protects your family."},
		},
	}
	r := AggregatesFromDataset(ds).KeywordInference(contents, []string{"honeyhandle"})
	top := r.TopSearched(10)
	rank := map[string]int{}
	for i, row := range top {
		rank[row.Term] = i + 1
	}
	if _, ok := rank["bitcoin"]; !ok {
		t.Fatalf("bitcoin missing from top searched: %+v", top)
	}
	// Corpus-dominant words must NOT rank top of the searched list.
	if r, ok := rank["energy"]; ok && r <= 3 {
		t.Fatalf("corpus word 'energy' ranked %d in searched list", r)
	}
	corpusTop := r.TopCorpus(5)
	found := false
	for _, row := range corpusTop {
		if row.Term == "company" || row.Term == "energy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("corpus top missing company/energy: %+v", corpusTop)
	}
}

func TestClassStringAnalysis(t *testing.T) {
	if (GoldDigger | Hijacker).String() != "gold-digger+hijacker" {
		t.Fatalf("string = %q", (GoldDigger | Hijacker).String())
	}
	if Curious.String() != "curious" || Class(0).String() != "curious" {
		t.Fatal("curious labels wrong")
	}
}
