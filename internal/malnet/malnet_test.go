package malnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/simtime"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

func newSched() *simtime.Scheduler {
	return simtime.NewScheduler(simtime.NewClock(epoch))
}

func TestDefaultSamplesMix(t *testing.T) {
	samples := DefaultSamples(rng.New(1), 100)
	if len(samples) != 100 {
		t.Fatalf("samples = %d", len(samples))
	}
	fam := map[Family]int{}
	alive := 0
	for _, s := range samples {
		fam[s.Family]++
		if s.C2Alive {
			alive++
		}
		if s.ID == "" {
			t.Fatal("sample without ID")
		}
	}
	if fam[FamilyZeus] == 0 || fam[FamilyCorebot] == 0 {
		t.Fatalf("family mix = %v; want both zeus and corebot (§3.2)", fam)
	}
	if alive == 0 || alive == 100 {
		t.Fatalf("alive C&C = %d/100; want a mix so SelectLive matters", alive)
	}
}

func TestSelectLive(t *testing.T) {
	in := []Sample{{ID: "a", C2Alive: true}, {ID: "b"}, {ID: "c", C2Alive: true}}
	live := SelectLive(in)
	if len(live) != 2 || live[0].ID != "a" || live[1].ID != "c" {
		t.Fatalf("SelectLive = %+v", live)
	}
}

func TestVMCycleExfiltratesToLiveC2(t *testing.T) {
	sched := newSched()
	var mu sync.Mutex
	var got []Exfiltration
	sb := NewSandbox(sched, func(e Exfiltration) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, e)
	})
	sample := Sample{ID: "zeus-1", Family: FamilyZeus, C2Alive: true}
	cred := Credential{Account: "h1@honeymail.example", Password: "pw"}
	vm := sb.RunVM(sample, cred)
	if vm.State != VMInfected {
		t.Fatalf("state after boot = %v", vm.State)
	}
	sched.RunFor(time.Hour)
	if vm.State != VMDestroyed || vm.KilledAt.IsZero() {
		t.Fatalf("vm not destroyed: %+v", vm)
	}
	if len(got) != 1 || got[0].Credential != cred {
		t.Fatalf("exfils = %+v", got)
	}
	// Exfil happens loginDelay+exfilDelay after boot (5m + 2m).
	if want := epoch.Add(7 * time.Minute); !got[0].At.Equal(want) {
		t.Fatalf("exfil at %v, want %v", got[0].At, want)
	}
}

func TestDeadC2SwallowsNothing(t *testing.T) {
	sched := newSched()
	called := false
	sb := NewSandbox(sched, func(Exfiltration) { called = true })
	sb.RunVM(Sample{ID: "zeus-dead", Family: FamilyZeus, C2Alive: false}, Credential{Account: "h@x", Password: "p"})
	sched.RunFor(time.Hour)
	if called {
		t.Fatal("dead C&C delivered an exfiltration")
	}
}

func TestRunCampaignRoundRobinOverLiveSamples(t *testing.T) {
	sched := newSched()
	var mu sync.Mutex
	var got []Exfiltration
	sb := NewSandbox(sched, func(e Exfiltration) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, e)
	})
	samples := []Sample{
		{ID: "zeus-1", Family: FamilyZeus, C2Alive: true},
		{ID: "dead-1", Family: FamilyZeus, C2Alive: false},
		{ID: "core-1", Family: FamilyCorebot, C2Alive: true},
	}
	creds := make([]Credential, 6)
	for i := range creds {
		creds[i] = Credential{Account: string(rune('a'+i)) + "@honeymail.example", Password: "p"}
	}
	sb.RunCampaign(samples, creds)
	sched.RunFor(24 * time.Hour)
	// All 6 credentials reach a C&C: dead samples are filtered out by
	// the pre-test, so only live ones are used, in turn.
	if len(got) != 6 {
		t.Fatalf("exfils = %d, want 6", len(got))
	}
	for i, e := range got {
		if want := []string{"zeus-1", "core-1"}[i%2]; e.Sample.ID != want || e.Credential != creds[i] {
			t.Fatalf("exfil %d = %s from %s, want %s from %s", i, e.Credential.Account, e.Sample.ID, creds[i].Account, want)
		}
		// Staggered: one VM per lifetime window.
		if want := epoch.Add(time.Duration(i)*vmLifetime + 7*time.Minute); !e.At.Equal(want) {
			t.Fatalf("exfil %d at %v, want %v", i, e.At, want)
		}
	}
}

func TestRunCampaignNoLiveSamples(t *testing.T) {
	sched := newSched()
	sb := NewSandbox(sched, func(Exfiltration) { t.Fatal("exfiltration without a live sample") })
	sb.RunCampaign([]Sample{{ID: "dead", C2Alive: false}}, []Credential{{Account: "a@x"}})
	if n := sched.Len(); n != 0 {
		t.Fatalf("campaign with no live samples scheduled %d events", n)
	}
}

// TestConfigDefaultsAndPrudentPractices: every VM runs under the
// prudent-practice bounds (§3.2): the credential is typed 5 minutes
// after infection, and the VM is destroyed 30 minutes after creation.
func TestConfigDefaultsAndPrudentPractices(t *testing.T) {
	sched := newSched()
	sb := NewSandbox(sched, nil)
	vm := sb.RunVM(Sample{ID: "z", C2Alive: true}, Credential{Account: "h@x", Password: "p"})
	for _, step := range []struct {
		at   time.Duration
		want VMState
	}{
		{4 * time.Minute, VMInfected},
		{5 * time.Minute, VMLoggedIn},
		{29 * time.Minute, VMLoggedIn},
		{30 * time.Minute, VMDestroyed},
	} {
		sched.RunUntil(epoch.Add(step.at))
		if vm.State != step.want {
			t.Fatalf("state at %v = %v, want %v", step.at, vm.State, step.want)
		}
	}
	if want := epoch.Add(30 * time.Minute); !vm.KilledAt.Equal(want) {
		t.Fatalf("vm killed at %v, want %v", vm.KilledAt, want)
	}
}

func TestExfiltrationsSortedByTime(t *testing.T) {
	sched := newSched()
	var got []Exfiltration
	sb := NewSandbox(sched, func(e Exfiltration) { got = append(got, e) })
	sb.RunCampaign([]Sample{{ID: "s", C2Alive: true}}, []Credential{{Account: "a@x"}, {Account: "b@x"}, {Account: "c@x"}})
	sched.RunFor(2 * time.Hour)
	if len(got) != 3 {
		t.Fatalf("exfils = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At.Before(got[i-1].At) {
			t.Fatal("exfiltrations not delivered in time order")
		}
	}
}

func TestVMStateString(t *testing.T) {
	want := map[VMState]string{VMCreated: "created", VMInfected: "infected", VMLoggedIn: "logged-in", VMDestroyed: "destroyed"}
	for s, label := range want {
		if s.String() != label {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
	if VMState(9).String() == "" {
		t.Fatal("unknown state renders empty")
	}
}
