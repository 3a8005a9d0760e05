package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name   string
		a, b   Point
		wantKm float64
		tolKm  float64
	}{
		{"london-paris", LondonMidpoint, Point{48.8566, 2.3522}, 344, 10},
		{"london-newyork", LondonMidpoint, Point{40.7128, -74.0060}, 5570, 50},
		{"same-point", LondonMidpoint, LondonMidpoint, 0, 1e-9},
		{"pontiac-chicago", PontiacMidpoint, Point{41.8781, -87.6298}, 138, 10},
	}
	for _, tc := range cases {
		got := HaversineKm(tc.a, tc.b)
		if math.Abs(got-tc.wantKm) > tc.tolKm {
			t.Errorf("%s: distance = %.1f km, want %.1f±%.1f", tc.name, got, tc.wantKm, tc.tolKm)
		}
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d1, d2 := HaversineKm(a, b), HaversineKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHaversineBounds(t *testing.T) {
	// No two points on Earth are farther apart than half the circumference.
	maxKm := math.Pi * earthRadiusKm
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d := HaversineKm(a, b)
		return d >= 0 && d <= maxKm+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 180) - 90
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 360) - 180
}

func TestMedianDistance(t *testing.T) {
	// Points at known offsets due north of the midpoint: 1 degree of
	// latitude is ~111.2 km.
	mid := Point{0, 0}
	pts := []Point{{1, 0}, {2, 0}, {3, 0}}
	got := MedianDistanceKm(pts, mid)
	if math.Abs(got-2*111.2) > 2 {
		t.Fatalf("median = %.1f, want ~222.4", got)
	}
}

func TestMedianDistanceEvenCount(t *testing.T) {
	mid := Point{0, 0}
	pts := []Point{{1, 0}, {3, 0}}
	got := MedianDistanceKm(pts, mid)
	if math.Abs(got-2*111.2) > 2 {
		t.Fatalf("even-count median = %.1f, want ~222.4 (mean of middle two)", got)
	}
}

func TestDistancesKmOrder(t *testing.T) {
	mid := Point{0, 0}
	pts := []Point{{2, 0}, {1, 0}}
	d := DistancesKm(pts, mid)
	if len(d) != 2 || d[0] < d[1] {
		t.Fatalf("DistancesKm did not preserve input order: %v", d)
	}
}

func TestDefaultGazetteerIntegrity(t *testing.T) {
	g := Default()
	cities := g.Cities()
	if len(cities) < 100 {
		t.Fatalf("gazetteer has %d cities, want >= 100", len(cities))
	}
	countries := map[string]bool{}
	for _, c := range cities {
		countries[c.Country] = true
	}
	if got := len(countries); got < 29 {
		t.Fatalf("gazetteer spans %d countries, want >= 29 (paper observed 29)", got)
	}
	for _, c := range cities {
		if c.Point.Lat < -90 || c.Point.Lat > 90 || c.Point.Lon < -180 || c.Point.Lon > 180 {
			t.Errorf("%s: coordinates out of range: %v", c.Name, c.Point)
		}
		if c.Name == "" || c.Country == "" {
			t.Errorf("city with empty name/country: %+v", c)
		}
	}
}

func TestGazetteerDuplicateRejected(t *testing.T) {
	_, err := NewGazetteer([]City{
		{Name: "X", Country: "A"},
		{Name: "X", Country: "B"},
	})
	if err == nil {
		t.Fatal("duplicate city name accepted")
	}
}

func TestGazetteerLookup(t *testing.T) {
	g := Default()
	c, ok := g.Lookup("London")
	if !ok || c.Country != "United Kingdom" {
		t.Fatalf("Lookup(London) = %+v, %v", c, ok)
	}
	if _, ok := g.Lookup("Atlantis"); ok {
		t.Fatal("Lookup of missing city succeeded")
	}
}

func TestRegionsPopulated(t *testing.T) {
	g := Default()
	for _, r := range []Region{RegionUK, RegionEurope, RegionUSMidwest, RegionUS,
		RegionRussia, RegionAsia, RegionAfrica, RegionSouthAmerica, RegionOceania, RegionNorthAmerica} {
		if len(g.InRegion(r)) == 0 {
			t.Errorf("region %v has no cities", r)
		}
	}
}

func TestUKCitiesNearLondonMidpoint(t *testing.T) {
	// All built-in UK cities must be within 600 km of London: the UK
	// decoy population (Figure 5a) relies on this.
	g := Default()
	for _, c := range g.InRegion(RegionUK) {
		if d := HaversineKm(c.Point, LondonMidpoint); d > 600 {
			t.Errorf("%s is %.0f km from London, want < 600", c.Name, d)
		}
	}
}

func TestMidwestCitiesNearPontiac(t *testing.T) {
	g := Default()
	for _, c := range g.InRegion(RegionUSMidwest) {
		if d := HaversineKm(c.Point, PontiacMidpoint); d > 800 {
			t.Errorf("%s is %.0f km from Pontiac, want < 800", c.Name, d)
		}
	}
}

func TestRegionString(t *testing.T) {
	if RegionUK.String() != "uk" {
		t.Fatalf("RegionUK.String() = %q", RegionUK.String())
	}
	if Region(99).String() == "" {
		t.Fatal("unknown region produced empty string")
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{51.5074, -0.1278}).String(); s != "51.5074,-0.1278" {
		t.Fatalf("Point.String() = %q", s)
	}
}
