// Package geo provides the geography substrate for the honeynet
// simulation: a city gazetteer, great-circle distances, the two decoy
// midpoints used in the paper's leaks, and median-distance analysis.
//
// The paper advertises decoy owner locations near London, UK and in
// the Midwestern US (midpoint Pontiac, Illinois), then measures how
// far attacker logins land from those midpoints (Figure 5a/5b). This
// package supplies the same primitives: city coordinates as Google's
// activity page would report them, haversine distance in kilometres,
// and the median-radius computation behind the figures.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// Point is a latitude/longitude pair in decimal degrees.
type Point struct {
	Lat float64
	Lon float64
}

// String renders the point as "lat,lon" with 4 decimal places.
func (p Point) String() string { return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon) }

// City is a gazetteer entry. Country uses short English names; the
// analysis only counts distinct values (paper §4.5: 29 countries).
type City struct {
	Name    string
	Country string
	Point   Point
	Region  Region
}

// Region buckets cities for sampling attacker origins.
type Region int

const (
	RegionUK Region = iota
	RegionEurope
	RegionUSMidwest
	RegionUS
	RegionRussia
	RegionAsia
	RegionAfrica
	RegionSouthAmerica
	RegionOceania
	RegionNorthAmerica // non-US
)

var regionNames = map[Region]string{
	RegionUK:           "uk",
	RegionEurope:       "europe",
	RegionUSMidwest:    "us-midwest",
	RegionUS:           "us",
	RegionRussia:       "russia",
	RegionAsia:         "asia",
	RegionAfrica:       "africa",
	RegionSouthAmerica: "south-america",
	RegionOceania:      "oceania",
	RegionNorthAmerica: "north-america",
}

// String returns the region's short name.
func (r Region) String() string {
	if n, ok := regionNames[r]; ok {
		return n
	}
	return fmt.Sprintf("region(%d)", int(r))
}

// LondonMidpoint is the UK decoy midpoint advertised in the leaks.
var LondonMidpoint = Point{Lat: 51.5074, Lon: -0.1278}

// PontiacMidpoint is the US decoy midpoint; the paper averages its
// advertised Midwestern locations and lands in Pontiac, Illinois.
var PontiacMidpoint = Point{Lat: 40.8808, Lon: -88.6298}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// HaversineKm returns the great-circle distance between two points in
// kilometres.
func HaversineKm(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	c := 2 * math.Atan2(math.Sqrt(s), math.Sqrt(1-s))
	return earthRadiusKm * c
}

// MedianDistanceKm computes the median great-circle distance from mid
// to each point: the radius of the circles drawn in Figure 5. It
// panics on empty input.
func MedianDistanceKm(points []Point, mid Point) float64 {
	if len(points) == 0 {
		panic("geo: MedianDistanceKm of no points")
	}
	d := DistancesKm(points, mid)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// DistancesKm returns the distance from mid to every point, in input
// order. This is the "distance vector" fed to the Cramér–von Mises
// test in §4.5.
func DistancesKm(points []Point, mid Point) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = HaversineKm(p, mid)
	}
	return out
}

// Gazetteer is an immutable collection of cities with a region index.
type Gazetteer struct {
	cities   []City
	byRegion map[Region][]City
	byName   map[string]City
}

// NewGazetteer builds a gazetteer over the given cities. Duplicate
// names are rejected so lookups stay unambiguous.
func NewGazetteer(cities []City) (*Gazetteer, error) {
	g := &Gazetteer{
		cities:   make([]City, len(cities)),
		byRegion: make(map[Region][]City),
		byName:   make(map[string]City, len(cities)),
	}
	copy(g.cities, cities)
	for _, c := range g.cities {
		if _, dup := g.byName[c.Name]; dup {
			return nil, fmt.Errorf("geo: duplicate city %q", c.Name)
		}
		g.byName[c.Name] = c
		g.byRegion[c.Region] = append(g.byRegion[c.Region], c)
	}
	return g, nil
}

// Default returns the built-in world gazetteer.
func Default() *Gazetteer {
	g, err := NewGazetteer(worldCities)
	if err != nil {
		panic(err) // built-in data is validated by tests
	}
	return g
}

// Cities returns all cities (copy).
func (g *Gazetteer) Cities() []City {
	out := make([]City, len(g.cities))
	copy(out, g.cities)
	return out
}

// InRegion returns the cities in one region (shared slice; callers
// must not mutate).
func (g *Gazetteer) InRegion(r Region) []City { return g.byRegion[r] }

// Lookup finds a city by name.
func (g *Gazetteer) Lookup(name string) (City, bool) {
	c, ok := g.byName[name]
	return c, ok
}

// worldCities is the built-in gazetteer. Coordinates are approximate
// city centres; the analyses need only city-level granularity, which
// matches what the Gmail activity page exposes.
var worldCities = []City{
	// United Kingdom — the UK decoy leaks advertise towns near London.
	{Name: "London", Country: "United Kingdom", Point: Point{51.5074, -0.1278}, Region: RegionUK},
	{Name: "Croydon", Country: "United Kingdom", Point: Point{51.3762, -0.0982}, Region: RegionUK},
	{Name: "Reading", Country: "United Kingdom", Point: Point{51.4543, -0.9781}, Region: RegionUK},
	{Name: "Luton", Country: "United Kingdom", Point: Point{51.8787, -0.4200}, Region: RegionUK},
	{Name: "Oxford", Country: "United Kingdom", Point: Point{51.7520, -1.2577}, Region: RegionUK},
	{Name: "Cambridge", Country: "United Kingdom", Point: Point{52.2053, 0.1218}, Region: RegionUK},
	{Name: "Brighton", Country: "United Kingdom", Point: Point{50.8225, -0.1372}, Region: RegionUK},
	{Name: "Birmingham", Country: "United Kingdom", Point: Point{52.4862, -1.8904}, Region: RegionUK},
	{Name: "Manchester", Country: "United Kingdom", Point: Point{53.4808, -2.2426}, Region: RegionUK},
	{Name: "Leeds", Country: "United Kingdom", Point: Point{53.8008, -1.5491}, Region: RegionUK},
	{Name: "Glasgow", Country: "United Kingdom", Point: Point{55.8642, -4.2518}, Region: RegionUK},
	{Name: "Edinburgh", Country: "United Kingdom", Point: Point{55.9533, -3.1883}, Region: RegionUK},

	// Europe
	{Name: "Paris", Country: "France", Point: Point{48.8566, 2.3522}, Region: RegionEurope},
	{Name: "Marseille", Country: "France", Point: Point{43.2965, 5.3698}, Region: RegionEurope},
	{Name: "Amsterdam", Country: "Netherlands", Point: Point{52.3676, 4.9041}, Region: RegionEurope},
	{Name: "Rotterdam", Country: "Netherlands", Point: Point{51.9244, 4.4777}, Region: RegionEurope},
	{Name: "Berlin", Country: "Germany", Point: Point{52.5200, 13.4050}, Region: RegionEurope},
	{Name: "Frankfurt", Country: "Germany", Point: Point{50.1109, 8.6821}, Region: RegionEurope},
	{Name: "Munich", Country: "Germany", Point: Point{48.1351, 11.5820}, Region: RegionEurope},
	{Name: "Madrid", Country: "Spain", Point: Point{40.4168, -3.7038}, Region: RegionEurope},
	{Name: "Barcelona", Country: "Spain", Point: Point{41.3851, 2.1734}, Region: RegionEurope},
	{Name: "Rome", Country: "Italy", Point: Point{41.9028, 12.4964}, Region: RegionEurope},
	{Name: "Milan", Country: "Italy", Point: Point{45.4642, 9.1900}, Region: RegionEurope},
	{Name: "Lisbon", Country: "Portugal", Point: Point{38.7223, -9.1393}, Region: RegionEurope},
	{Name: "Vienna", Country: "Austria", Point: Point{48.2082, 16.3738}, Region: RegionEurope},
	{Name: "Zurich", Country: "Switzerland", Point: Point{47.3769, 8.5417}, Region: RegionEurope},
	{Name: "Warsaw", Country: "Poland", Point: Point{52.2297, 21.0122}, Region: RegionEurope},
	{Name: "Krakow", Country: "Poland", Point: Point{50.0647, 19.9450}, Region: RegionEurope},
	{Name: "Prague", Country: "Czechia", Point: Point{50.0755, 14.4378}, Region: RegionEurope},
	{Name: "Budapest", Country: "Hungary", Point: Point{47.4979, 19.0402}, Region: RegionEurope},
	{Name: "Bucharest", Country: "Romania", Point: Point{44.4268, 26.1025}, Region: RegionEurope},
	{Name: "Sofia", Country: "Bulgaria", Point: Point{42.6977, 23.3219}, Region: RegionEurope},
	{Name: "Kyiv", Country: "Ukraine", Point: Point{50.4501, 30.5234}, Region: RegionEurope},
	{Name: "Kharkiv", Country: "Ukraine", Point: Point{49.9935, 36.2304}, Region: RegionEurope},
	{Name: "Athens", Country: "Greece", Point: Point{37.9838, 23.7275}, Region: RegionEurope},
	{Name: "Stockholm", Country: "Sweden", Point: Point{59.3293, 18.0686}, Region: RegionEurope},
	{Name: "Oslo", Country: "Norway", Point: Point{59.9139, 10.7522}, Region: RegionEurope},
	{Name: "Copenhagen", Country: "Denmark", Point: Point{55.6761, 12.5683}, Region: RegionEurope},
	{Name: "Helsinki", Country: "Finland", Point: Point{60.1699, 24.9384}, Region: RegionEurope},
	{Name: "Dublin", Country: "Ireland", Point: Point{53.3498, -6.2603}, Region: RegionEurope},
	{Name: "Brussels", Country: "Belgium", Point: Point{50.8503, 4.3517}, Region: RegionEurope},
	{Name: "Chisinau", Country: "Moldova", Point: Point{47.0105, 28.8638}, Region: RegionEurope},
	{Name: "Minsk", Country: "Belarus", Point: Point{53.9006, 27.5590}, Region: RegionEurope},
	{Name: "Belgrade", Country: "Serbia", Point: Point{44.7866, 20.4489}, Region: RegionEurope},
	{Name: "Istanbul", Country: "Turkey", Point: Point{41.0082, 28.9784}, Region: RegionEurope},

	// US Midwest — decoy towns whose average is Pontiac, IL.
	{Name: "Pontiac", Country: "United States", Point: Point{40.8808, -88.6298}, Region: RegionUSMidwest},
	{Name: "Chicago", Country: "United States", Point: Point{41.8781, -87.6298}, Region: RegionUSMidwest},
	{Name: "Peoria", Country: "United States", Point: Point{40.6936, -89.5890}, Region: RegionUSMidwest},
	{Name: "Springfield", Country: "United States", Point: Point{39.7817, -89.6501}, Region: RegionUSMidwest},
	{Name: "Bloomington", Country: "United States", Point: Point{40.4842, -88.9937}, Region: RegionUSMidwest},
	{Name: "Indianapolis", Country: "United States", Point: Point{39.7684, -86.1581}, Region: RegionUSMidwest},
	{Name: "Milwaukee", Country: "United States", Point: Point{43.0389, -87.9065}, Region: RegionUSMidwest},
	{Name: "St. Louis", Country: "United States", Point: Point{38.6270, -90.1994}, Region: RegionUSMidwest},
	{Name: "Des Moines", Country: "United States", Point: Point{41.5868, -93.6250}, Region: RegionUSMidwest},
	{Name: "Kansas City", Country: "United States", Point: Point{39.0997, -94.5786}, Region: RegionUSMidwest},
	{Name: "Minneapolis", Country: "United States", Point: Point{44.9778, -93.2650}, Region: RegionUSMidwest},
	{Name: "Detroit", Country: "United States", Point: Point{42.3314, -83.0458}, Region: RegionUSMidwest},
	{Name: "Columbus", Country: "United States", Point: Point{39.9612, -82.9988}, Region: RegionUSMidwest},
	{Name: "Cleveland", Country: "United States", Point: Point{41.4993, -81.6944}, Region: RegionUSMidwest},
	{Name: "Omaha", Country: "United States", Point: Point{41.2565, -95.9345}, Region: RegionUSMidwest},

	// Wider United States
	{Name: "New York", Country: "United States", Point: Point{40.7128, -74.0060}, Region: RegionUS},
	{Name: "Los Angeles", Country: "United States", Point: Point{34.0522, -118.2437}, Region: RegionUS},
	{Name: "San Francisco", Country: "United States", Point: Point{37.7749, -122.4194}, Region: RegionUS},
	{Name: "Seattle", Country: "United States", Point: Point{47.6062, -122.3321}, Region: RegionUS},
	{Name: "Miami", Country: "United States", Point: Point{25.7617, -80.1918}, Region: RegionUS},
	{Name: "Houston", Country: "United States", Point: Point{29.7604, -95.3698}, Region: RegionUS},
	{Name: "Dallas", Country: "United States", Point: Point{32.7767, -96.7970}, Region: RegionUS},
	{Name: "Atlanta", Country: "United States", Point: Point{33.7490, -84.3880}, Region: RegionUS},
	{Name: "Boston", Country: "United States", Point: Point{42.3601, -71.0589}, Region: RegionUS},
	{Name: "Denver", Country: "United States", Point: Point{39.7392, -104.9903}, Region: RegionUS},
	{Name: "Phoenix", Country: "United States", Point: Point{33.4484, -112.0740}, Region: RegionUS},
	{Name: "Washington", Country: "United States", Point: Point{38.9072, -77.0369}, Region: RegionUS},

	// Russia & CIS (the Russian paste-site population draws from here).
	{Name: "Moscow", Country: "Russia", Point: Point{55.7558, 37.6173}, Region: RegionRussia},
	{Name: "Saint Petersburg", Country: "Russia", Point: Point{59.9311, 30.3609}, Region: RegionRussia},
	{Name: "Novosibirsk", Country: "Russia", Point: Point{55.0084, 82.9357}, Region: RegionRussia},
	{Name: "Yekaterinburg", Country: "Russia", Point: Point{56.8389, 60.6057}, Region: RegionRussia},
	{Name: "Kazan", Country: "Russia", Point: Point{55.8304, 49.0661}, Region: RegionRussia},
	{Name: "Almaty", Country: "Kazakhstan", Point: Point{43.2220, 76.8512}, Region: RegionRussia},

	// Asia
	{Name: "Beijing", Country: "China", Point: Point{39.9042, 116.4074}, Region: RegionAsia},
	{Name: "Shanghai", Country: "China", Point: Point{31.2304, 121.4737}, Region: RegionAsia},
	{Name: "Tokyo", Country: "Japan", Point: Point{35.6762, 139.6503}, Region: RegionAsia},
	{Name: "Seoul", Country: "South Korea", Point: Point{37.5665, 126.9780}, Region: RegionAsia},
	{Name: "Mumbai", Country: "India", Point: Point{19.0760, 72.8777}, Region: RegionAsia},
	{Name: "Delhi", Country: "India", Point: Point{28.7041, 77.1025}, Region: RegionAsia},
	{Name: "Bangalore", Country: "India", Point: Point{12.9716, 77.5946}, Region: RegionAsia},
	{Name: "Karachi", Country: "Pakistan", Point: Point{24.8607, 67.0011}, Region: RegionAsia},
	{Name: "Dhaka", Country: "Bangladesh", Point: Point{23.8103, 90.4125}, Region: RegionAsia},
	{Name: "Jakarta", Country: "Indonesia", Point: Point{-6.2088, 106.8456}, Region: RegionAsia},
	{Name: "Manila", Country: "Philippines", Point: Point{14.5995, 120.9842}, Region: RegionAsia},
	{Name: "Bangkok", Country: "Thailand", Point: Point{13.7563, 100.5018}, Region: RegionAsia},
	{Name: "Hanoi", Country: "Vietnam", Point: Point{21.0285, 105.8542}, Region: RegionAsia},
	{Name: "Kuala Lumpur", Country: "Malaysia", Point: Point{3.1390, 101.6869}, Region: RegionAsia},
	{Name: "Singapore", Country: "Singapore", Point: Point{1.3521, 103.8198}, Region: RegionAsia},
	{Name: "Tel Aviv", Country: "Israel", Point: Point{32.0853, 34.7818}, Region: RegionAsia},
	{Name: "Dubai", Country: "United Arab Emirates", Point: Point{25.2048, 55.2708}, Region: RegionAsia},
	{Name: "Tehran", Country: "Iran", Point: Point{35.6892, 51.3890}, Region: RegionAsia},

	// Africa
	{Name: "Lagos", Country: "Nigeria", Point: Point{6.5244, 3.3792}, Region: RegionAfrica},
	{Name: "Abuja", Country: "Nigeria", Point: Point{9.0765, 7.3986}, Region: RegionAfrica},
	{Name: "Cairo", Country: "Egypt", Point: Point{30.0444, 31.2357}, Region: RegionAfrica},
	{Name: "Nairobi", Country: "Kenya", Point: Point{-1.2921, 36.8219}, Region: RegionAfrica},
	{Name: "Johannesburg", Country: "South Africa", Point: Point{-26.2041, 28.0473}, Region: RegionAfrica},
	{Name: "Accra", Country: "Ghana", Point: Point{5.6037, -0.1870}, Region: RegionAfrica},
	{Name: "Casablanca", Country: "Morocco", Point: Point{33.5731, -7.5898}, Region: RegionAfrica},
	{Name: "Tunis", Country: "Tunisia", Point: Point{36.8065, 10.1815}, Region: RegionAfrica},

	// South America
	{Name: "Sao Paulo", Country: "Brazil", Point: Point{-23.5505, -46.6333}, Region: RegionSouthAmerica},
	{Name: "Rio de Janeiro", Country: "Brazil", Point: Point{-22.9068, -43.1729}, Region: RegionSouthAmerica},
	{Name: "Buenos Aires", Country: "Argentina", Point: Point{-34.6037, -58.3816}, Region: RegionSouthAmerica},
	{Name: "Bogota", Country: "Colombia", Point: Point{4.7110, -74.0721}, Region: RegionSouthAmerica},
	{Name: "Lima", Country: "Peru", Point: Point{-12.0464, -77.0428}, Region: RegionSouthAmerica},
	{Name: "Santiago", Country: "Chile", Point: Point{-33.4489, -70.6693}, Region: RegionSouthAmerica},
	{Name: "Caracas", Country: "Venezuela", Point: Point{10.4806, -66.9036}, Region: RegionSouthAmerica},

	// Oceania
	{Name: "Sydney", Country: "Australia", Point: Point{-33.8688, 151.2093}, Region: RegionOceania},
	{Name: "Melbourne", Country: "Australia", Point: Point{-37.8136, 144.9631}, Region: RegionOceania},
	{Name: "Auckland", Country: "New Zealand", Point: Point{-36.8485, 174.7633}, Region: RegionOceania},

	// North America outside the US
	{Name: "Toronto", Country: "Canada", Point: Point{43.6532, -79.3832}, Region: RegionNorthAmerica},
	{Name: "Vancouver", Country: "Canada", Point: Point{49.2827, -123.1207}, Region: RegionNorthAmerica},
	{Name: "Montreal", Country: "Canada", Point: Point{45.5019, -73.5674}, Region: RegionNorthAmerica},
	{Name: "Mexico City", Country: "Mexico", Point: Point{19.4326, -99.1332}, Region: RegionNorthAmerica},
	{Name: "Guadalajara", Country: "Mexico", Point: Point{20.6597, -103.3496}, Region: RegionNorthAmerica},
	{Name: "Panama City", Country: "Panama", Point: Point{8.9824, -79.5199}, Region: RegionNorthAmerica},
	{Name: "San Jose", Country: "Costa Rica", Point: Point{9.9281, -84.0907}, Region: RegionNorthAmerica},
}
