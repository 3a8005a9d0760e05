package analysis

import "sort"

// Location analysis of §4.5 / Figure 5: distances between login
// origins and the advertised decoy midpoints, median radii per leak
// group, and the Cramér–von Mises comparisons.

// GroupKey identifies one comparison group of Figure 5: an outlet
// family with or without an advertised location.
type GroupKey struct {
	Outlet Outlet
	Hint   Hint
}

// RadiusRow is one circle of Figure 5.
type RadiusRow struct {
	Group    GroupKey
	N        int
	MedianKm float64
}

// medianRadii computes the radius rows from distance vectors (each
// sorted ascending).
func medianRadii(vectors map[GroupKey][]float64) []RadiusRow {
	keys := make([]GroupKey, 0, len(vectors))
	for k := range vectors {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Outlet != keys[j].Outlet {
			return keys[i].Outlet < keys[j].Outlet
		}
		return keys[i].Hint < keys[j].Hint
	})
	var out []RadiusRow
	for _, k := range keys {
		v := vectors[k]
		if len(v) == 0 {
			continue
		}
		med := v[len(v)/2]
		if len(v)%2 == 0 {
			med = (v[len(v)/2-1] + v[len(v)/2]) / 2
		}
		out = append(out, RadiusRow{Group: k, N: len(v), MedianKm: med})
	}
	return out
}

// SignificanceRow is one CvM comparison of §4.5: hint vs no-hint for
// one outlet family in one region.
type SignificanceRow struct {
	Outlet Outlet
	Region Hint
	Result CvMResult
	NHint  int
	NPlain int
}

// locationSignificance runs the paper's four tests (paste UK, paste
// US, forum UK, forum US) over distance vectors supplied by a lookup
// (sorted ascending per group). Pairs with an empty side are skipped.
func locationSignificance(vectorsFor func(Hint) map[GroupKey][]float64, resamples int, seed int64) []SignificanceRow {
	var out []SignificanceRow
	for _, region := range []Hint{HintUK, HintUS} {
		vectors := vectorsFor(region)
		for _, outlet := range []Outlet{OutletPaste, OutletForum} {
			withHint := vectors[GroupKey{Outlet: outlet, Hint: region}]
			plain := vectors[GroupKey{Outlet: outlet, Hint: HintNone}]
			if len(withHint) == 0 || len(plain) == 0 {
				continue
			}
			res := CvMTest(withHint, plain, resamples, seed)
			out = append(out, SignificanceRow{
				Outlet: outlet, Region: region, Result: res,
				NHint: len(withHint), NPlain: len(plain),
			})
		}
	}
	return out
}

// ConfigRow summarises the §4.4 system-configuration observations for
// one outlet.
type ConfigRow struct {
	Outlet       Outlet
	Accesses     int
	EmptyUA      int
	Android      int
	Desktop      int
	BrowserNames map[string]int
}

// classifyUA mirrors netsim's fingerprinting without importing it
// (analysis depends only on observables, not on the simulator).
func classifyUA(ua string) (browser, device string) {
	if ua == "" {
		return "unknown", "unknown"
	}
	has := func(sub string) bool {
		for i := 0; i+len(sub) <= len(ua); i++ {
			if ua[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	}
	switch {
	case has("Android"):
		return "android", "android"
	case has("Opera"):
		return "opera", "desktop"
	case has("Firefox"):
		return "firefox", "desktop"
	case has("Trident") || has("MSIE"):
		return "ie", "desktop"
	case has("Chrome"):
		return "chrome", "desktop"
	case has("Safari"):
		return "safari", "desktop"
	default:
		return "unknown", "desktop"
	}
}

// Overview reproduces the §4.1/§4.5 headline numbers.
type Overview struct {
	UniqueAccesses    int
	EmailsRead        int
	EmailsSent        int
	UniqueDrafts      int
	SuspendedAccounts int
	Countries         int
	WithLocation      int
	WithoutLocation   int
	BlacklistedIPs    int
}
