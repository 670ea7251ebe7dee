package discovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// newTable builds a table whose expiry callback is an inline closure: the
// adapter passes it through the owner slot of the static-callback form.
func newTable[K comparable, V any](k *sim.Kernel, onExpire func(K, V)) *LeaseTable[K, V] {
	t := &LeaseTable[K, V]{}
	if onExpire == nil {
		t.Init(k, nil, nil)
		return t
	}
	t.Init(k, func(fn any, key K, v V) { fn.(func(K, V))(key, v) }, onExpire)
	return t
}

func TestLeaseTablePutGetDrop(t *testing.T) {
	k := sim.New(1)
	tbl := newTable[string, int](k, nil)
	tbl.Put("a", 1, 10*sim.Second)
	if v, ok := tbl.Get("a"); !ok || v != 1 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	tbl.Put("a", 2, 10*sim.Second) // replace
	if v, _ := tbl.Get("a"); v != 2 {
		t.Errorf("value not replaced: %d", v)
	}
	tbl.Drop("a")
	if _, ok := tbl.Get("a"); ok {
		t.Error("entry survives Drop")
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d after drop", tbl.Len())
	}
}

func TestLeaseTableExpiry(t *testing.T) {
	k := sim.New(1)
	var expired []string
	tbl := newTable[string, int](k, func(key string, v int) {
		expired = append(expired, key)
	})
	tbl.Put("a", 1, 10*sim.Second)
	tbl.Put("b", 2, 20*sim.Second)
	k.Run(15 * sim.Second)
	if len(expired) != 1 || expired[0] != "a" {
		t.Fatalf("expired = %v, want [a]", expired)
	}
	if _, ok := tbl.Get("a"); ok {
		t.Error("expired entry still present")
	}
	if _, ok := tbl.Get("b"); !ok {
		t.Error("live entry purged early")
	}
	k.Run(25 * sim.Second)
	if len(expired) != 2 {
		t.Errorf("expired = %v, want both", expired)
	}
}

func TestLeaseTableRenewExtends(t *testing.T) {
	k := sim.New(1)
	expired := 0
	tbl := newTable[string, int](k, func(string, int) { expired++ })
	tbl.Put("a", 1, 10*sim.Second)
	k.At(8*sim.Second, func() {
		if !tbl.Renew("a", 10*sim.Second) {
			t.Error("renewal of live entry failed")
		}
	})
	k.Run(15 * sim.Second)
	if expired != 0 {
		t.Fatal("entry expired despite renewal")
	}
	k.Run(20 * sim.Second) // renewed lease runs out at 18s
	if expired != 1 {
		t.Errorf("expired = %d, want 1", expired)
	}
}

func TestLeaseTableRenewAbsentFails(t *testing.T) {
	k := sim.New(1)
	tbl := newTable[string, int](k, nil)
	if tbl.Renew("ghost", sim.Second) {
		t.Error("renewal of absent entry succeeded — PR3/PR4 would never trigger")
	}
}

func TestLeaseTableUpdateKeepsLease(t *testing.T) {
	k := sim.New(1)
	tbl := newTable[string, int](k, nil)
	tbl.Put("a", 1, 10*sim.Second)
	exp1, _ := tbl.Expiry("a")
	k.At(5*sim.Second, func() {
		if !tbl.Update("a", 99) {
			t.Error("Update of live entry failed")
		}
		exp2, _ := tbl.Expiry("a")
		if exp2 != exp1 {
			t.Error("Update moved the lease deadline")
		}
	})
	k.Run(6 * sim.Second)
	if v, _ := tbl.Get("a"); v != 99 {
		t.Errorf("value = %d after Update", v)
	}
	if tbl.Update("ghost", 1) {
		t.Error("Update of absent entry succeeded")
	}
}

func TestLeaseTablePutAfterExpiryReinserts(t *testing.T) {
	k := sim.New(1)
	expirations := 0
	tbl := newTable[string, int](k, func(string, int) { expirations++ })
	tbl.Put("a", 1, 5*sim.Second)
	k.Run(10 * sim.Second)
	tbl.Put("a", 2, 5*sim.Second)
	k.Run(20 * sim.Second)
	if expirations != 2 {
		t.Errorf("expirations = %d, want 2 (expire, reinsert, expire)", expirations)
	}
}

func TestLeaseTableEachAndKeys(t *testing.T) {
	k := sim.New(1)
	tbl := newTable[int, string](k, nil)
	tbl.Put(1, "x", sim.Second)
	tbl.Put(2, "y", sim.Second)
	seen := map[int]string{}
	tbl.Each(func(k int, v string) { seen[k] = v })
	if len(seen) != 2 || seen[1] != "x" || seen[2] != "y" {
		t.Errorf("Each visited %v", seen)
	}
	if len(tbl.Keys()) != 2 {
		t.Errorf("Keys = %v", tbl.Keys())
	}
}

// TestLeaseTableKeepsInsertionOrder: Puts, renewing Puts, Drops and
// expiries at any position leave the live keys in insertion order, as a
// slice model that deletes in place has them, on both sides of the
// inline-to-indexed switch.
func TestLeaseTableKeepsInsertionOrder(t *testing.T) {
	k := sim.New(1)
	var model []int
	del := func(key int) { model = slices.DeleteFunc(model, func(x int) bool { return x == key }) }
	tbl := newTable[int, int](k, func(key, _ int) { del(key) })
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		key := rng.Intn(12)
		switch rng.Intn(3) {
		case 0, 1:
			if !slices.Contains(model, key) {
				model = append(model, key)
			}
			tbl.Put(key, step, sim.Duration(1+rng.Intn(20))*sim.Second)
		case 2:
			tbl.Drop(key)
			del(key)
		}
		k.Run(k.Now() + sim.Second) // some leases run out
		if got := tbl.Keys(); !slices.Equal(got, model) || tbl.Len() != len(model) {
			t.Fatalf("step %d: keys %v (len %d), want %v", step, got, tbl.Len(), model)
		}
	}
}

// newStrictTable is newTable marked strict, as a hardened lease holder's.
func newStrictTable[K comparable, V any](k *sim.Kernel, onExpire func(K, V)) *LeaseTable[K, V] {
	t := newTable(k, onExpire)
	t.SetStrict(true)
	return t
}

func TestLeaseTableRenewStrictJustBeforeExpiry(t *testing.T) {
	k := sim.New(1)
	expired := 0
	tbl := newStrictTable[string, int](k, func(string, int) { expired++ })
	tbl.Put("a", 1, 10*sim.Second)
	k.At(10*sim.Second-1, func() {
		if !tbl.Renew("a", 10*sim.Second) {
			t.Error("strict renewal one tick before expiry refused")
		}
	})
	k.Run(15 * sim.Second)
	if expired != 0 {
		t.Fatal("entry expired despite an in-time strict renewal")
	}
}

func TestLeaseTableRenewStrictAtExpiryRefused(t *testing.T) {
	for _, tc := range []struct {
		strict      bool
		wantRenewed bool
		wantPurgeAt sim.Time
	}{
		{strict: true, wantRenewed: false, wantPurgeAt: 10 * sim.Second},
		// A lax table still renews at that instant (TestLeaseTableRenewRacingPurge).
		{strict: false, wantRenewed: true, wantPurgeAt: 20 * sim.Second},
	} {
		k := sim.New(1)
		var purges []sim.Time
		tbl := newTable[string, int](k, func(string, int) { purges = append(purges, k.Now()) })
		tbl.SetStrict(tc.strict)
		// The renewal is scheduled before Put arms the deadline, so at t=10s
		// the kernel's FIFO tie-break delivers it first: the entry is still
		// present, but the lease is spent. Strict must refuse, and the purge
		// must still fire at the same instant.
		renewed := !tc.wantRenewed
		k.At(10*sim.Second, func() { renewed = tbl.Renew("a", 10*sim.Second) })
		tbl.Put("a", 1, 10*sim.Second)
		k.Run(30 * sim.Second)
		if renewed != tc.wantRenewed {
			t.Errorf("strict=%v: renewal at the expiry instant = %v, want %v", tc.strict, renewed, tc.wantRenewed)
		}
		if len(purges) != 1 || purges[0] != tc.wantPurgeAt {
			t.Errorf("strict=%v: purges at %v, want one at %v", tc.strict, purges, tc.wantPurgeAt)
		}
	}
}

func TestLeaseTableRenewRacingPurge(t *testing.T) {
	// The same race through a lax table's Renew: delivered at the expiry
	// instant ahead of the purge event, it extends the lease and the purge
	// never fires. This is the baseline behavior the hunted lease-purge
	// fixtures pin down — and what a strict table turns off.
	k := sim.New(1)
	expired := 0
	tbl := newTable[string, int](k, func(string, int) { expired++ })
	lax := false
	k.At(10*sim.Second, func() { lax = tbl.Renew("a", 10*sim.Second) })
	tbl.Put("a", 1, 10*sim.Second)
	k.Run(15 * sim.Second)
	if !lax {
		t.Error("lax renewal at the expiry instant refused — the documented race is gone?")
	}
	if expired != 0 {
		t.Errorf("expirations = %d: the lax renewal should have kept the entry alive", expired)
	}
	k.Run(25 * sim.Second)
	if expired != 1 {
		t.Errorf("expirations = %d, want 1 at the extended deadline", expired)
	}
}

func TestLeaseTableRenewStrictAbsentFails(t *testing.T) {
	k := sim.New(1)
	tbl := newStrictTable[string, int](k, nil)
	if tbl.Renew("ghost", sim.Second) {
		t.Error("strict renewal of an absent entry succeeded")
	}
}

// Property: an entry expires exactly once, never fires after Drop, and
// Get never returns an expired value — for arbitrary interleavings of
// put/renew/drop operations at arbitrary times.
func TestQuickLeaseLifecycle(t *testing.T) {
	type op struct {
		At    uint16 // seconds
		Kind  uint8  // 0=put 1=renew 2=drop
		Lease uint8  // seconds, 1..255
	}
	f := func(ops []op) bool {
		k := sim.New(7)
		expirations := 0
		live := false
		tbl := newTable[string, int](k, func(string, int) {
			expirations++
			live = false
		})
		puts := 0
		for _, o := range ops {
			o := o
			lease := sim.Duration(int(o.Lease)+1) * sim.Second
			k.At(sim.Time(o.At)*sim.Second, func() {
				switch o.Kind % 3 {
				case 0:
					tbl.Put("k", 1, lease)
					live = true
					puts++
				case 1:
					if tbl.Renew("k", lease) != live {
						t.Error("Renew result disagrees with liveness")
					}
				case 2:
					tbl.Drop("k")
					live = false
				}
				if _, ok := tbl.Get("k"); ok != live {
					t.Error("Get disagrees with liveness model")
				}
			})
		}
		k.Run(sim.Time(1<<17) * sim.Second)
		// After the horizon every lease has run out: the table must be
		// empty and expirations can never exceed the number of puts.
		if tbl.Len() != 0 && live {
			return false
		}
		return expirations <= puts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// RenewIf is EachKey + Renew without the snapshot and the second lookup:
// the same entries move, in the same insertion order, a strict table
// refuses the same spent lease, and RenewIf reports whether any Renew
// would have succeeded. So two kernels driven either way fire the same
// expiries at the same instants in the same order.
func TestRenewIfMatchesEachKeyRenew(t *testing.T) {
	run := func(strict bool, renew func(tbl *LeaseTable[string, int]) bool) (log []string) {
		k := sim.New(1)
		tbl := newTable[string, int](k, func(key string, _ int) {
			log = append(log, fmt.Sprintf("%s@%v", key, k.Now()))
		})
		tbl.SetStrict(strict)
		// Scheduled before the Puts, the renewal reaches "a" at its expiry
		// instant ahead of the purge: present, but spent.
		k.At(50*sim.Second, func() { log = append(log, fmt.Sprintf("renewed=%v", renew(tbl))) })
		for i, key := range []string{"a", "b", "c", "d"} {
			lease := 100 * sim.Second
			if key == "a" {
				lease = 50 * sim.Second
			}
			tbl.Put(key, i, lease)
		}
		tbl.Drop("c")
		k.Run(1000 * sim.Second)
		return log
	}
	for _, strict := range []bool{false, true} {
		for name, want := range map[string]func(string) bool{
			"all but b": func(key string) bool { return key != "b" },
			"a and c":   func(key string) bool { return key == "a" || key == "c" },
		} {
			viaEachKey := run(strict, func(tbl *LeaseTable[string, int]) (any bool) {
				tbl.EachKey(func(key string) {
					if want(key) && tbl.Renew(key, 100*sim.Second) {
						any = true
					}
				})
				return any
			})
			viaRenewIf := run(strict, func(tbl *LeaseTable[string, int]) bool { return tbl.RenewIf(100*sim.Second, want) })
			if !reflect.DeepEqual(viaRenewIf, viaEachKey) || len(viaRenewIf) != 4 {
				t.Errorf("strict=%v, %s: RenewIf log %v, EachKey+Renew %v", strict, name, viaRenewIf, viaEachKey)
			}
		}
	}
}
