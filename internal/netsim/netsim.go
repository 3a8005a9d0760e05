// Package netsim simulates the network-visible identity of a client:
// IP addresses with city-level geolocation, Tor exit nodes and open
// proxies that defeat geolocation, browser user agents and device
// classes, per-browser cookie identifiers, and a Spamhaus-style
// DNS blacklist.
//
// The paper's monitoring relies on exactly these observables. Google's
// activity page reports the login city (or nothing, for Tor exits and
// anonymous proxies, §4.5), an OS/browser fingerprint (§4.4), and a
// cookie identifier per browser session (§4.3); the authors then check
// the observed IPs against the Spamhaus blacklist (20 of them hit).
// netsim produces the same observables for simulated clients.
package netsim

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/rng"
)

// DeviceClass is the coarse device type the fingerprinting reports.
type DeviceClass int

const (
	// DeviceDesktop is a traditional computer.
	DeviceDesktop DeviceClass = iota
	// DeviceAndroid is a mobile device; the paper saw Android accesses
	// only on accounts leaked via paste sites and forums (§4.4).
	DeviceAndroid
	// DeviceUnknown is what an empty user agent fingerprints as; all
	// malware-outlet accesses looked like this (§4.4).
	DeviceUnknown
)

// String returns the device class label used in reports.
func (d DeviceClass) String() string {
	switch d {
	case DeviceDesktop:
		return "desktop"
	case DeviceAndroid:
		return "android"
	case DeviceUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// Browser identifies the browser family a user agent fingerprints as.
type Browser int

const (
	BrowserUnknown Browser = iota // empty or unparseable user agent
	BrowserChrome
	BrowserFirefox
	BrowserIE
	BrowserSafari
	BrowserOpera
	BrowserAndroid
)

// String returns the browser family label used in reports.
func (b Browser) String() string {
	switch b {
	case BrowserChrome:
		return "chrome"
	case BrowserFirefox:
		return "firefox"
	case BrowserIE:
		return "ie"
	case BrowserSafari:
		return "safari"
	case BrowserOpera:
		return "opera"
	case BrowserAndroid:
		return "android"
	case BrowserUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("browser(%d)", int(b))
	}
}

// userAgents maps browser families to representative UA strings; the
// exact string content is irrelevant to the analyses, only the family
// classification and emptiness are observable.
var userAgents = map[Browser][]string{
	BrowserChrome: {
		"Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/43.0.2357.130 Safari/537.36",
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/46.0.2490.86 Safari/537.36",
		"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.101 Safari/537.36",
	},
	BrowserFirefox: {
		"Mozilla/5.0 (Windows NT 6.1; WOW64; rv:40.0) Gecko/20100101 Firefox/40.0",
		"Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:41.0) Gecko/20100101 Firefox/41.0",
	},
	BrowserIE: {
		"Mozilla/5.0 (Windows NT 6.1; Trident/7.0; rv:11.0) like Gecko",
		"Mozilla/4.0 (compatible; MSIE 8.0; Windows NT 6.1)",
	},
	BrowserSafari: {
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10_5) AppleWebKit/600.8.9 (KHTML, like Gecko) Version/8.0.8 Safari/600.8.9",
	},
	BrowserOpera: {
		"Opera/9.80 (Windows NT 6.1; WOW64) Presto/2.12.388 Version/12.17",
	},
	BrowserAndroid: {
		"Mozilla/5.0 (Linux; Android 5.1; Nexus 5 Build/LMY47I) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/43.0.2357.78 Mobile Safari/537.36",
		"Mozilla/5.0 (Linux; Android 4.4.2; GT-I9505 Build/KOT49H) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/42.0.2311.111 Mobile Safari/537.36",
	},
}

// ClassifyUserAgent reproduces the fingerprinting the analyses depend
// on: an empty UA is unknown (malware accesses, §4.4), otherwise the
// browser family and device class are derived from the string.
func ClassifyUserAgent(ua string) (Browser, DeviceClass) {
	if ua == "" {
		return BrowserUnknown, DeviceUnknown
	}
	has := func(sub string) bool { return contains(ua, sub) }
	switch {
	case has("Android"):
		return BrowserAndroid, DeviceAndroid
	case has("Opera"):
		return BrowserOpera, DeviceDesktop
	case has("Firefox"):
		return BrowserFirefox, DeviceDesktop
	case has("Trident") || has("MSIE"):
		return BrowserIE, DeviceDesktop
	case has("Chrome"):
		return BrowserChrome, DeviceDesktop
	case has("Safari"):
		return BrowserSafari, DeviceDesktop
	default:
		return BrowserUnknown, DeviceDesktop
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// UserAgentFor returns a representative user agent for a browser
// family, or "" for BrowserUnknown (the malware empty-UA behaviour).
func UserAgentFor(s *rng.Source, b Browser) string {
	if b == BrowserUnknown {
		return ""
	}
	uas, ok := userAgents[b]
	if !ok {
		return ""
	}
	return rng.Pick(s, uas)
}

// Endpoint is the full network identity of one client access.
type Endpoint struct {
	Addr      netip.Addr
	City      string // "" when anonymised
	Country   string // "" when anonymised
	Point     geo.Point
	Tor       bool // Tor exit node
	Proxy     bool // open/anonymous proxy
	UserAgent string
}

// Anonymous reports whether geolocation is unavailable for this
// endpoint — Google told the authors such accesses were "mostly ...
// Tor exit nodes or anonymous proxies" (§4.5).
func (e Endpoint) Anonymous() bool { return e.Tor || e.Proxy }

// HasLocation reports whether the activity page would show a city.
func (e Endpoint) HasLocation() bool { return !e.Anonymous() && e.City != "" }

// AddressSpace deterministically allocates IPv4 addresses with
// city-level geolocation, plus Tor exit and open-proxy pools that
// geolocation cannot resolve. It is safe for concurrent use.
type AddressSpace struct {
	mu       sync.Mutex
	src      *rng.Source
	gaz      *geo.Gazetteer
	cityNet  map[string]netip.Addr // next address per city
	torNext  netip.Addr
	prxNext  netip.Addr
	assigned map[netip.Addr]string // addr -> city ("" for tor/proxy)
	torSet   map[netip.Addr]bool
	prxSet   map[netip.Addr]bool
}

// NewAddressSpace builds an address space over a gazetteer. Each city
// receives a disjoint /16-like range derived from its index; Tor and
// proxy pools live in dedicated ranges.
func NewAddressSpace(src *rng.Source, gaz *geo.Gazetteer) *AddressSpace {
	return NewAddressSpaceTenant(src, gaz, 0)
}

// v4Tenants is the number of tenants the IPv4 plane holds. Each of
// them shifts every pool base by tenant<<18 (a /14 per tenant): with
// 800 slots the top shift is ~12.5 in the first octet, so the city
// pool stays below 54.x, the Tor pool below 184.x and the proxy pool
// below 198.x — mutually disjoint — while a /14 still holds the whole
// per-tenant city layout (gazetteer cities occupy
// (1+i>>8)<<16 + (i&255)<<8, which fits for up to 767 cities).
const v4Tenants = 800

// TenantSlots bounds the number of disjoint tenant ranges. The first
// v4Tenants tenants keep their original IPv4 layout byte for byte (so
// paper-scale runs and their goldens never move); tenants beyond that
// overflow into the 2001:db8::/32 documentation prefix, where each
// tenant owns a /64 split into city/Tor/proxy pools — the fleet-scale
// plane that lets a plan expand to hundreds of thousands of blocks
// (ScaleFactor 1000 is 8000 blocks) without two attackers ever
// sharing an address.
const TenantSlots = 1 << 20

// NewAddressSpaceTenant builds an address space whose allocation
// ranges are disjoint from every other tenant's. The sharded
// experiment engine gives each plan block its own tenant so two
// attackers in different blocks can never be assigned the same IP —
// distinct criminals sharing an address would corrupt IP-keyed
// analyses (unique-IP counts, the Spamhaus cross-check of §4.5).
// Out-of-range tenants panic rather than silently wrap onto another
// tenant's ranges; size fleets against TenantSlots.
func NewAddressSpaceTenant(src *rng.Source, gaz *geo.Gazetteer, tenant int) *AddressSpace {
	if tenant < 0 || tenant >= TenantSlots {
		panic(fmt.Sprintf("netsim: tenant %d out of range [0,%d)", tenant, TenantSlots))
	}
	as := &AddressSpace{
		src:      src,
		gaz:      gaz,
		cityNet:  make(map[string]netip.Addr),
		assigned: make(map[netip.Addr]string),
		torSet:   make(map[netip.Addr]bool),
		prxSet:   make(map[netip.Addr]bool),
	}
	cities := gaz.Cities()
	sort.Slice(cities, func(i, j int) bool { return cities[i].Name < cities[j].Name })
	if tenant < v4Tenants {
		off := uint32(tenant) << 18
		for i, c := range cities {
			// Deterministic layout: city i of tenant t gets base
			// 41.(1+i>>8).(i&255).1 shifted by t<<18.
			base := addrShift(netip.AddrFrom4([4]byte{41, byte(1 + i>>8), byte(i & 255), 1}), off)
			as.cityNet[c.Name] = base
		}
		as.torNext = addrShift(netip.AddrFrom4([4]byte{171, 25, 193, 1}), off) // Tor-ish range
		as.prxNext = addrShift(netip.AddrFrom4([4]byte{185, 100, 84, 1}), off) // proxy-ish range
		return as
	}
	// Overflow plane: 2001:db8:<tenant>::/64 per tenant, pools keyed
	// by a kind byte so city/Tor/proxy ranges cannot meet. Every
	// consumer handles these addresses through netip.Addr, so the two
	// planes differ only in the bytes they print.
	for i, c := range cities {
		as.cityNet[c.Name] = addr6(tenant, 1, uint64(i)<<16|1)
	}
	as.torNext = addr6(tenant, 2, 1)
	as.prxNext = addr6(tenant, 3, 1)
	return as
}

// addr6 builds the overflow-plane address 2001:db8:<tenant>::/64 with
// a pool-kind byte and a low counter in the interface bits.
func addr6(tenant int, kind byte, low uint64) netip.Addr {
	var b [16]byte
	b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
	b[4] = byte(tenant >> 24)
	b[5] = byte(tenant >> 16)
	b[6] = byte(tenant >> 8)
	b[7] = byte(tenant)
	b[8] = kind
	b[9] = byte(low >> 48)
	b[10] = byte(low >> 40)
	b[11] = byte(low >> 32)
	b[12] = byte(low >> 24)
	b[13] = byte(low >> 16)
	b[14] = byte(low >> 8)
	b[15] = byte(low)
	return netip.AddrFrom16(b)
}

// addrShift adds a fixed offset to an IPv4 address.
func addrShift(a netip.Addr, off uint32) netip.Addr {
	b := a.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	v += off
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// FromCity allocates a fresh address geolocated to the named city.
func (a *AddressSpace) FromCity(cityName string) (Endpoint, error) {
	city, ok := a.gaz.Lookup(cityName)
	if !ok {
		return Endpoint{}, fmt.Errorf("netsim: unknown city %q", cityName)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	addr := a.cityNet[city.Name]
	a.cityNet[city.Name] = addr.Next()
	a.assigned[addr] = city.Name
	return Endpoint{
		Addr:    addr,
		City:    city.Name,
		Country: city.Country,
		Point:   city.Point,
	}, nil
}

// TorExit allocates a fresh Tor exit endpoint: no geolocation, no
// meaningful origin point.
func (a *AddressSpace) TorExit() Endpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	addr := a.torNext
	a.torNext = addr.Next()
	a.assigned[addr] = ""
	a.torSet[addr] = true
	return Endpoint{Addr: addr, Tor: true}
}

// OpenProxy allocates a fresh anonymous-proxy endpoint.
func (a *AddressSpace) OpenProxy() Endpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	addr := a.prxNext
	a.prxNext = addr.Next()
	a.assigned[addr] = ""
	a.prxSet[addr] = true
	return Endpoint{Addr: addr, Proxy: true}
}

// IsTor reports whether the address was allocated from the Tor pool.
func (a *AddressSpace) IsTor(addr netip.Addr) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.torSet[addr]
}

// IsProxy reports whether the address was allocated from the proxy pool.
func (a *AddressSpace) IsProxy(addr netip.Addr) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.prxSet[addr]
}

// CityOf returns the geolocation the activity page would display for
// an address, or "" if the address is anonymised or unknown.
func (a *AddressSpace) CityOf(addr netip.Addr) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.assigned[addr]
}

// Blacklist is a Spamhaus-style IP reputation list. In the paper, 20
// of the observed IP addresses appeared in the Spamhaus blacklist,
// which the authors read as malware-infected machines used as access
// proxies (§4.5). The simulation registers addresses of infected
// machines here; analyses then perform the same cross-check.
type Blacklist struct {
	mu     sync.RWMutex
	listed map[netip.Addr]string // addr -> reason
}

// NewBlacklist returns an empty blacklist.
func NewBlacklist() *Blacklist {
	return &Blacklist{listed: make(map[netip.Addr]string)}
}

// Add lists an address with a reason code (e.g. "XBL/botnet").
func (b *Blacklist) Add(addr netip.Addr, reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.listed[addr] = reason
}

// Lookup reports whether the address is listed, DNSBL-style.
func (b *Blacklist) Lookup(addr netip.Addr) (reason string, listed bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	reason, listed = b.listed[addr]
	return reason, listed
}

// LookupString is Lookup over a textual IP; unparseable strings are
// never listed.
func (b *Blacklist) LookupString(ip string) (reason string, listed bool) {
	addr, err := netip.ParseAddr(ip)
	if err != nil {
		return "", false
	}
	return b.Lookup(addr)
}

// CookieJar issues per-browser cookie identifiers. Google identifies
// each access to an account with a cookie identifier (§4.3); our
// webmail service does the same, and attacker sessions hold one
// cookie per browser installation.
type CookieJar struct {
	mu     sync.Mutex
	prefix string
	next   uint64
}

// NewCookieJar returns a jar issuing IDs from a fixed origin.
func NewCookieJar() *CookieJar { return &CookieJar{next: 1} }

// NewCookieJarPrefixed returns a jar whose identifiers carry a
// namespace prefix. The sharded experiment engine gives each shard
// component its own prefixed jar so cookie values stay globally
// unique and independent of cross-shard issuance interleaving —
// a prerequisite for bit-for-bit reproducible parallel runs.
func NewCookieJarPrefixed(prefix string) *CookieJar {
	return &CookieJar{prefix: prefix, next: 1}
}

// Issue returns a fresh opaque cookie identifier.
func (j *CookieJar) Issue() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	id := j.next
	j.next++
	if j.prefix != "" {
		return fmt.Sprintf("GAPS-%s-%012x", j.prefix, id)
	}
	return fmt.Sprintf("GAPS-%012x", id)
}
