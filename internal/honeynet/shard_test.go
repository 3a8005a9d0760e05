package honeynet

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/netsim"
	"repro/internal/webmail"
)

// runSharded executes a fastConfig deployment at the given shard
// count and scale, returning the merged dataset.
func runSharded(t *testing.T, seed int64, shards, scale int) (*Experiment, *analysis.Dataset) {
	t.Helper()
	cfg := fastConfig(seed)
	cfg.Shards = shards
	cfg.ScaleFactor = scale
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	return e, e.Dataset()
}

// datasetsIdentical asserts two merged datasets are equal record by
// record — the bit-for-bit reproducibility contract.
func datasetsIdentical(t *testing.T, label string, a, b *analysis.Dataset) {
	t.Helper()
	if len(a.Accesses) != len(b.Accesses) {
		t.Fatalf("%s: %d vs %d accesses", label, len(a.Accesses), len(b.Accesses))
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatalf("%s: access %d differs:\n  %+v\n  %+v", label, i, a.Accesses[i], b.Accesses[i])
		}
	}
	if len(a.Actions) != len(b.Actions) {
		t.Fatalf("%s: %d vs %d actions", label, len(a.Actions), len(b.Actions))
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			t.Fatalf("%s: action %d differs:\n  %+v\n  %+v", label, i, a.Actions[i], b.Actions[i])
		}
	}
	if len(a.PasswordChanges) != len(b.PasswordChanges) {
		t.Fatalf("%s: %d vs %d password changes", label, len(a.PasswordChanges), len(b.PasswordChanges))
	}
	for i := range a.PasswordChanges {
		if a.PasswordChanges[i] != b.PasswordChanges[i] {
			t.Fatalf("%s: password change %d differs", label, i)
		}
	}
	if a.SuspendedAccounts != b.SuspendedAccounts {
		t.Fatalf("%s: suspended %d vs %d", label, a.SuspendedAccounts, b.SuspendedAccounts)
	}
	if len(a.Blacklisted) != len(b.Blacklisted) {
		t.Fatalf("%s: blacklisted %d vs %d", label, len(a.Blacklisted), len(b.Blacklisted))
	}
	for ip := range a.Blacklisted {
		if !b.Blacklisted[ip] {
			t.Fatalf("%s: blacklisted IP %s missing", label, ip)
		}
	}
	ra, rb := analysis.AggregatesFromDataset(a).Overview(), analysis.AggregatesFromDataset(b).Overview()
	if ra != rb {
		t.Fatalf("%s: overview differs:\n  %+v\n  %+v", label, ra, rb)
	}
}

// TestShardCountInvariance is the sharding contract: with a fixed
// seed, the merged dataset is identical whether the plan runs on one
// scheduler or partitioned across several parallel ones.
func TestShardCountInvariance(t *testing.T) {
	_, serial := runSharded(t, 42, 1, 1)
	for _, shards := range []int{2, 4} {
		_, parallel := runSharded(t, 42, shards, 1)
		datasetsIdentical(t, "shards=1 vs shards="+string(rune('0'+shards)), serial, parallel)
	}
}

// TestShardedRunDeterministic re-runs the same sharded configuration
// twice (parallel execution, same seed) and demands identical output —
// the regression guard against goroutine-interleaving leaking into
// the dataset.
func TestShardedRunDeterministic(t *testing.T) {
	_, a := runSharded(t, 99, 4, 1)
	_, b := runSharded(t, 99, 4, 1)
	datasetsIdentical(t, "repeat sharded run", a, b)
}

// TestShardCountInvarianceAtScale repeats the invariance check with a
// replicated plan, covering the scale path (blocks > plan rows).
func TestShardCountInvarianceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled invariance sweep in -short mode")
	}
	_, serial := runSharded(t, 7, 1, 2)
	_, parallel := runSharded(t, 7, 4, 2)
	datasetsIdentical(t, "scale=2 shards=1 vs 4", serial, parallel)
}

// TestScaleFactorReplicatesPlan checks the fleet-scale knob: the plan
// replicates K times with fresh accounts and fresh randomness.
func TestScaleFactorReplicatesPlan(t *testing.T) {
	e, ds := runSharded(t, 5, 2, 3)
	base := fastConfig(5)
	wantAccounts := 3 * PlanAccounts(base.Plan)
	if got := len(e.Assignments()); got != wantAccounts {
		t.Fatalf("assignments = %d, want %d", got, wantAccounts)
	}
	if got := platformAccounts(e); got != wantAccounts {
		t.Fatalf("platform accounts = %d, want %d", got, wantAccounts)
	}
	if got := len(e.plan); got != 3*len(base.Plan) {
		t.Fatalf("expanded plan rows = %d, want %d", got, 3*len(base.Plan))
	}
	// Group totals scale linearly (Table 1 at K×).
	perGroup := map[int]int{}
	for _, a := range e.Assignments() {
		perGroup[a.Group.ID]++
	}
	for id, n := range map[int]int{1: 18, 2: 12, 3: 12, 5: 12} {
		if perGroup[id] != n {
			t.Fatalf("group %d = %d accounts, want %d", id, perGroup[id], n)
		}
	}
	if len(ds.Accesses) == 0 {
		t.Fatal("scaled run observed no accesses")
	}
	// Replicas draw independent randomness: the contents of replica
	// mailboxes must not be copies of each other.
	if n := e.SeededContents().Accounts(); n != wantAccounts {
		t.Fatalf("contents for %d accounts, want %d", n, wantAccounts)
	}
}

// TestShardPlatformsAreDisjoint is shard isolation in its structural
// form: each shard's webmail platform holds exactly the accounts of
// the blocks shardOf places on it, after Setup and again after Run,
// and Service finds that platform for every account. No shard could
// reach another shard's account: its platform does not hold it.
func TestShardPlatformsAreDisjoint(t *testing.T) {
	cfg := fastConfig(11)
	cfg.Shards = 3
	cfg.ScaleFactor = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		want := make([][]string, len(e.shards))
		for _, b := range e.blocks {
			sh := shardOf(b.idx, len(cfg.Plan), len(e.shards))
			for _, a := range e.assignments[b.start:b.end] {
				want[sh] = append(want[sh], a.Account)
			}
		}
		owner := make(map[string]*webmail.Service)
		for i, sh := range e.shards {
			got := sh.svc.Accounts()
			sort.Strings(want[i])
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: shard %d platform holds %d accounts, want its %d block accounts:\n got %v\nwant %v",
					when, i, len(got), len(want[i]), got, want[i])
			}
			for _, a := range got {
				owner[a] = sh.svc
			}
		}
		if len(owner) != len(e.assignments) {
			t.Fatalf("%s: platforms hold %d accounts, plan has %d", when, len(owner), len(e.assignments))
		}
		for _, a := range e.assignments {
			if got := e.Service(a.Account); got == nil || got != owner[a.Account] {
				t.Fatalf("%s: Service(%s) is not the platform holding it", when, a.Account)
			}
		}
	}
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	check("after Setup")
	if err := e.Leak(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	check("after Run")
	if svc := e.Service("nobody@honeymail.example"); svc != nil {
		t.Fatal("Service returned a platform for an address outside the plan")
	}
}

// TestShardsClampedToBlocks: more shards than plan blocks degrade
// gracefully to one block per shard.
func TestShardsClampedToBlocks(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Shards = 64
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Shards(), len(cfg.Plan); got != want {
		t.Fatalf("shards = %d, want clamp to %d blocks", got, want)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ds := e.Dataset(); len(ds.Accesses) == 0 {
		t.Fatal("clamped run observed no accesses")
	}
}

// TestShardedLifecycleGuards: the lifecycle contract survives the
// refactor at any shard count.
func TestShardedLifecycleGuards(t *testing.T) {
	cfg := fastConfig(3)
	cfg.Shards = 4
	cfg.Duration = 10 * 24 * time.Hour
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("Run before Setup/Leak accepted")
	}
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := e.Leak(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired := e.ShardSet().Fired(); fired == 0 {
		t.Fatal("no events fired across shards")
	}
}

// TestDistinctAttackersNeverShareIPs guards the per-block address
// tenancy: two different criminals (cookies) must never be observed
// from the same IP, or IP-keyed analyses (unique-IP counts, the
// Spamhaus cross-check of §4.5) would conflate them.
func TestDistinctAttackersNeverShareIPs(t *testing.T) {
	_, ds := runSharded(t, 42, 4, 1)
	byIP := map[string]string{} // IP -> first cookie seen
	for _, a := range ds.Accesses {
		if prev, ok := byIP[a.IP]; ok && prev != a.Cookie {
			t.Fatalf("IP %s shared by cookies %s and %s", a.IP, prev, a.Cookie)
		}
		byIP[a.IP] = a.Cookie
	}
}

// TestPlanTooLargeForTenancyRejected: fleets beyond the IP-tenancy
// capacity fail loudly at construction instead of silently assigning
// colliding address ranges — and fleets that used to hit the IPv4
// ceiling now construct, their tail blocks drawing addresses from the
// IPv6 overflow plane.
func TestPlanTooLargeForTenancyRejected(t *testing.T) {
	cfg := fastConfig(1)
	cfg.ScaleFactor = netsim.TenantSlots/4 + 1
	if _, err := New(cfg); err == nil {
		t.Fatal("oversized plan accepted")
	}
	cfg = fastConfig(1)
	cfg.ScaleFactor = 300 // 4 blocks × 300 = 1200, past the old 800-slot IPv4 ceiling
	if _, err := New(cfg); err != nil {
		t.Fatalf("1200-block fleet rejected: %v", err)
	}
}

// TestBlocksStripedAcrossShards: when the scale is a multiple of the
// shard count, every shard holds an equal share of every plan row,
// even when the row count shares a factor with the shard count, as
// Table 1's 8 rows do with 2 and 4 shards. An unscaled plan keeps
// block i on shard i mod n.
func TestBlocksStripedAcrossShards(t *testing.T) {
	plan := Table1Plan()
	rows := len(plan)
	for _, c := range []struct{ shards, scale int }{{2, 2}, {2, 10}, {4, 4}, {4, 8}, {3, 6}} {
		e, err := New(Config{Seed: 1, Plan: plan, Shards: c.shards, ScaleFactor: c.scale})
		if err != nil {
			t.Fatal(err)
		}
		blocks := make(map[[2]int]int) // (shard, row) -> blocks
		accounts := make([]int, c.shards)
		for _, b := range e.blocks {
			blocks[[2]int{b.shard.id, b.idx % rows}]++
			accounts[b.shard.id] += b.spec.Count
		}
		for sh := 0; sh < c.shards; sh++ {
			for g := 0; g < rows; g++ {
				if got, want := blocks[[2]int{sh, g}], c.scale/c.shards; got != want {
					t.Errorf("shards=%d scale=%d: shard %d holds %d blocks of row %d, want %d",
						c.shards, c.scale, sh, got, g, want)
				}
			}
			if got, want := accounts[sh], PlanAccounts(plan)*c.scale/c.shards; got != want {
				t.Errorf("shards=%d scale=%d: shard %d holds %d accounts, want %d", c.shards, c.scale, sh, got, want)
			}
		}
	}
	e, err := New(Config{Seed: 1, Plan: plan, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range e.blocks {
		if b.shard.id != b.idx%3 {
			t.Fatalf("unscaled block %d on shard %d, want %d", b.idx, b.shard.id, b.idx%3)
		}
	}
}
