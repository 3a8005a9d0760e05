// Package malnet simulates the paper's malware honeypot
// infrastructure (§3.2): a sandbox that repeatedly creates virtual
// machines, infects each with an information-stealing malware sample
// (Zeus and Corebot families), performs a scripted webmail login so
// the running malware captures the honey credential, exfiltrates the
// capture to the sample's command-and-control server, and destroys the
// VM after a bounded lifetime.
//
// Faithful details:
//
//   - Sample selection: before the experiment the authors ran a test
//     pass to keep only samples whose C&C servers were still alive;
//     SelectLive models that filter (dead-C&C samples capture but
//     never exfiltrate).
//   - Prudent practices (Rossow et al., §3.2/§3.4): VM network
//     bandwidth is capped, VM lifetime is bounded, and all mail-like
//     traffic from the sandbox is sinkholed. The sandbox enforces the
//     first two; the webmail platform's send-from override handles the
//     third.
//   - Hand-off: an exfiltrated credential belongs to one botmaster
//     (unlike public leaks, §4.3) until it is aggregated or resold —
//     the bursts of new activity the paper observed around day 30 and
//     day 100 after the leak. The sandbox reports exfiltration events;
//     the attacker engine models the botmaster and resale timing.
package malnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// Family is a malware family name.
type Family string

// The families the paper deployed.
const (
	FamilyZeus    Family = "zeus"
	FamilyCorebot Family = "corebot"
)

// Sample is one malware binary in the registry.
type Sample struct {
	ID      string
	Family  Family
	C2Alive bool // whether its command-and-control still responds
}

// DefaultSamples returns a registry of Zeus and Corebot samples, some
// with dead C&C servers (to be filtered out by SelectLive, as the
// paper's pre-test did).
func DefaultSamples(src *rng.Source, n int) []Sample {
	if n <= 0 {
		n = 24
	}
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		fam := FamilyZeus
		if src.Bool(0.3) {
			fam = FamilyCorebot
		}
		out = append(out, Sample{
			ID:      fmt.Sprintf("%s-%04d", fam, i),
			Family:  fam,
			C2Alive: src.Bool(0.6),
		})
	}
	return out
}

// SelectLive keeps only samples whose C&C responded during the
// pre-experiment test pass.
func SelectLive(samples []Sample) []Sample {
	var out []Sample
	for _, s := range samples {
		if s.C2Alive {
			out = append(out, s)
		}
	}
	return out
}

// Credential is a honey username/password pair fed to an infected VM.
type Credential struct {
	Account  string
	Password string
}

// Exfiltration is one credential arriving at a C&C server.
type Exfiltration struct {
	Sample     Sample
	Credential Credential
	At         time.Time
}

// ExfilHandler consumes exfiltration events (the attacker engine's
// botmaster model).
type ExfilHandler func(e Exfiltration)

// Prudent-practice bounds on every sandbox VM. A VM is destroyed
// vmLifetime after creation. The credential is typed loginDelay after
// infection, letting the malware hook the browser first, and the
// malware uploads it to its C&C exfilDelay later. bandwidthKbps caps
// the VM's network interface against DoS; it is recorded for audit and
// moves no behaviour in the simulation.
const (
	vmLifetime    = 30 * time.Minute
	loginDelay    = 5 * time.Minute
	exfilDelay    = 2 * time.Minute
	bandwidthKbps = 256
)

// VMState tracks a virtual machine's lifecycle.
type VMState int

const (
	VMCreated VMState = iota
	VMInfected
	VMLoggedIn
	VMDestroyed
)

// String returns the state label.
func (s VMState) String() string {
	switch s {
	case VMCreated:
		return "created"
	case VMInfected:
		return "infected"
	case VMLoggedIn:
		return "logged-in"
	case VMDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// VM is one sandbox virtual machine run.
type VM struct {
	ID         int
	Sample     Sample
	Credential Credential
	State      VMState
	CreatedAt  time.Time
	KilledAt   time.Time
}

// Sandbox drives the infect→login→exfiltrate→destroy cycle.
type Sandbox struct {
	sched   *simtime.Scheduler
	handler ExfilHandler

	mu     sync.Mutex
	nextID int
}

// NewSandbox builds a sandbox. handler receives every successful
// exfiltration.
func NewSandbox(sched *simtime.Scheduler, handler ExfilHandler) *Sandbox {
	if sched == nil {
		panic("malnet: NewSandbox requires a scheduler")
	}
	return &Sandbox{sched: sched, handler: handler}
}

// RunVM schedules one full VM cycle for the given sample/credential:
// create and infect now, log in after loginDelay (exposing the
// credential to the malware), exfiltrate exfilDelay later if the
// sample's C&C is alive, destroy at vmLifetime. It returns the VM
// handle for inspection.
func (sb *Sandbox) RunVM(sample Sample, cred Credential) *VM {
	sb.mu.Lock()
	sb.nextID++
	// Infection is immediate on boot.
	vm := &VM{ID: sb.nextID, Sample: sample, Credential: cred, State: VMInfected, CreatedAt: sb.sched.Now()}
	sb.mu.Unlock()

	sb.sched.After(loginDelay, "vm-login", func(time.Time) {
		sb.mu.Lock()
		vm.State = VMLoggedIn
		sb.mu.Unlock()
		sb.sched.After(exfilDelay, "vm-exfil", func(now time.Time) {
			// A sample whose C&C is dead talks into the void.
			if sample.C2Alive && sb.handler != nil {
				sb.handler(Exfiltration{Sample: sample, Credential: cred, At: now})
			}
		})
	})
	sb.sched.After(vmLifetime, "vm-destroy", func(now time.Time) {
		sb.mu.Lock()
		vm.State = VMDestroyed
		vm.KilledAt = now
		sb.mu.Unlock()
	})
	return vm
}

// RunCampaign feeds each credential to one live sample in round-robin
// order, one VM per credential, staggered by the VM lifetime (a new VM
// is created as the previous one is torn down, as in the paper's
// rolling setup).
func (sb *Sandbox) RunCampaign(samples []Sample, creds []Credential) {
	live := SelectLive(samples)
	if len(live) == 0 {
		return
	}
	for i, cred := range creds {
		sample, cred := live[i%len(live)], cred
		sb.sched.After(time.Duration(i)*vmLifetime, "vm-cycle", func(time.Time) {
			sb.RunVM(sample, cred)
		})
	}
}
