package netsim

import (
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/rng"
)

func newSpace(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(rng.New(1), geo.Default())
}

func TestFromCityGeolocates(t *testing.T) {
	as := newSpace(t)
	ep, err := as.FromCity("London")
	if err != nil {
		t.Fatal(err)
	}
	if ep.City != "London" || ep.Country != "United Kingdom" {
		t.Fatalf("endpoint = %+v", ep)
	}
	if !ep.HasLocation() || ep.Anonymous() {
		t.Fatal("city endpoint should have location and not be anonymous")
	}
	if as.CityOf(ep.Addr) != "London" {
		t.Fatalf("CityOf = %q, want London", as.CityOf(ep.Addr))
	}
}

func TestFromCityUnknown(t *testing.T) {
	as := newSpace(t)
	if _, err := as.FromCity("Atlantis"); err == nil {
		t.Fatal("unknown city accepted")
	}
}

func TestAddressesUnique(t *testing.T) {
	as := newSpace(t)
	seen := map[netip.Addr]bool{}
	for i := 0; i < 200; i++ {
		ep, err := as.FromCity("London")
		if err != nil {
			t.Fatal(err)
		}
		if seen[ep.Addr] {
			t.Fatalf("duplicate address %v", ep.Addr)
		}
		seen[ep.Addr] = true
	}
	// Different cities must not collide either.
	ep1, _ := as.FromCity("Paris")
	ep2, _ := as.FromCity("Moscow")
	if seen[ep1.Addr] || seen[ep2.Addr] || ep1.Addr == ep2.Addr {
		t.Fatal("cross-city address collision")
	}
}

func TestTorExit(t *testing.T) {
	as := newSpace(t)
	ep := as.TorExit()
	if !ep.Tor || !ep.Anonymous() || ep.HasLocation() {
		t.Fatalf("tor endpoint = %+v", ep)
	}
	if !as.IsTor(ep.Addr) {
		t.Fatal("IsTor false for tor address")
	}
	if as.CityOf(ep.Addr) != "" {
		t.Fatal("tor address geolocated")
	}
}

func TestOpenProxy(t *testing.T) {
	as := newSpace(t)
	ep := as.OpenProxy()
	if !ep.Proxy || !ep.Anonymous() {
		t.Fatalf("proxy endpoint = %+v", ep)
	}
	if !as.IsProxy(ep.Addr) || as.IsTor(ep.Addr) {
		t.Fatal("pool membership wrong for proxy address")
	}
}

func TestPoolsDisjoint(t *testing.T) {
	as := newSpace(t)
	city, _ := as.FromCity("Tokyo")
	tor := as.TorExit()
	prx := as.OpenProxy()
	addrs := []netip.Addr{city.Addr, tor.Addr, prx.Addr}
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			if addrs[i] == addrs[j] {
				t.Fatalf("pool collision: %v", addrs[i])
			}
		}
	}
}

func TestClassifyUserAgent(t *testing.T) {
	cases := []struct {
		ua      string
		browser Browser
		device  DeviceClass
	}{
		{"", BrowserUnknown, DeviceUnknown},
		{userAgents[BrowserChrome][0], BrowserChrome, DeviceDesktop},
		{userAgents[BrowserFirefox][0], BrowserFirefox, DeviceDesktop},
		{userAgents[BrowserIE][0], BrowserIE, DeviceDesktop},
		{userAgents[BrowserIE][1], BrowserIE, DeviceDesktop},
		{userAgents[BrowserSafari][0], BrowserSafari, DeviceDesktop},
		{userAgents[BrowserOpera][0], BrowserOpera, DeviceDesktop},
		{userAgents[BrowserAndroid][0], BrowserAndroid, DeviceAndroid},
		{"curl/7.43.0", BrowserUnknown, DeviceDesktop},
	}
	for _, tc := range cases {
		b, d := ClassifyUserAgent(tc.ua)
		if b != tc.browser || d != tc.device {
			t.Errorf("ClassifyUserAgent(%.40q) = %v,%v want %v,%v", tc.ua, b, d, tc.browser, tc.device)
		}
	}
}

func TestUserAgentRoundTrip(t *testing.T) {
	s := rng.New(2)
	for _, b := range []Browser{BrowserChrome, BrowserFirefox, BrowserIE, BrowserSafari, BrowserOpera, BrowserAndroid} {
		ua := UserAgentFor(s, b)
		if ua == "" {
			t.Fatalf("UserAgentFor(%v) empty", b)
		}
		got, _ := ClassifyUserAgent(ua)
		if got != b {
			t.Errorf("round trip %v -> %q -> %v", b, ua, got)
		}
	}
	if UserAgentFor(s, BrowserUnknown) != "" {
		t.Fatal("BrowserUnknown should map to empty UA (malware behaviour)")
	}
}

func TestBlacklist(t *testing.T) {
	bl := NewBlacklist()
	addr := netip.MustParseAddr("192.0.2.7")
	if _, listed := bl.Lookup(addr); listed {
		t.Fatal("empty blacklist lists an address")
	}
	bl.Add(addr, "XBL/botnet")
	reason, listed := bl.Lookup(addr)
	if !listed || reason != "XBL/botnet" {
		t.Fatalf("Lookup = %q,%v", reason, listed)
	}
}

func TestCookieJarUniqueAndStableFormat(t *testing.T) {
	j := NewCookieJar()
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		c := j.Issue()
		if seen[c] {
			t.Fatalf("duplicate cookie %q", c)
		}
		if len(c) != len("GAPS-000000000001") {
			t.Fatalf("cookie format changed: %q", c)
		}
		seen[c] = true
	}
}

func TestDeviceAndBrowserStrings(t *testing.T) {
	if DeviceDesktop.String() != "desktop" || DeviceAndroid.String() != "android" || DeviceUnknown.String() != "unknown" {
		t.Fatal("device class labels changed")
	}
	if BrowserChrome.String() != "chrome" || BrowserUnknown.String() != "unknown" {
		t.Fatal("browser labels changed")
	}
	if DeviceClass(42).String() == "" || Browser(42).String() == "" {
		t.Fatal("out-of-range enums should still render")
	}
}

// Property: every allocated city address geolocates back to the city
// it was requested for.
func TestPropertyCityRoundTrip(t *testing.T) {
	as := newSpace(t)
	cities := geo.Default().Cities()
	f := func(pick uint16, n uint8) bool {
		city := cities[int(pick)%len(cities)].Name
		for i := 0; i <= int(n)%5; i++ {
			ep, err := as.FromCity(city)
			if err != nil || as.CityOf(ep.Addr) != city {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSpaceTenantsDisjoint(t *testing.T) {
	gaz := geo.Default()
	seenCity := map[string]int{}
	seenTor := map[string]int{}
	seenProxy := map[string]int{}
	// Spans both planes: the IPv4 ladder, its last slot, and the
	// first/later slots of the IPv6 overflow plane.
	for _, tenant := range []int{0, 1, 2, 3, 4, 5, 399, v4Tenants - 1, v4Tenants, v4Tenants + 1, 8000, TenantSlots - 1} {
		as := NewAddressSpaceTenant(rng.New(1), gaz, tenant)
		for i := 0; i < 10; i++ {
			ep, err := as.FromCity("London")
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seenCity[ep.Addr.String()]; dup {
				t.Fatalf("city address %s of tenant %d collides with tenant %d", ep.Addr, tenant, prev)
			}
			seenCity[ep.Addr.String()] = tenant
			tor := as.TorExit()
			if prev, dup := seenTor[tor.Addr.String()]; dup {
				t.Fatalf("tor address %s of tenant %d collides with tenant %d", tor.Addr, tenant, prev)
			}
			seenTor[tor.Addr.String()] = tenant
			prx := as.OpenProxy()
			if prev, dup := seenProxy[prx.Addr.String()]; dup {
				t.Fatalf("proxy address %s of tenant %d collides with tenant %d", prx.Addr, tenant, prev)
			}
			seenProxy[prx.Addr.String()] = tenant
		}
	}
}

func TestAddressSpaceTenantOutOfRangePanics(t *testing.T) {
	for _, tenant := range []int{-1, TenantSlots} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("tenant %d did not panic", tenant)
				}
			}()
			NewAddressSpaceTenant(rng.New(1), geo.Default(), tenant)
		}()
	}
}
