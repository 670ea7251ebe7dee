package discovery

import (
	"repro/internal/sim"
)

// LeaseTable is the time-limited map behind every cache in the system:
// service registrations at a Registry, subscriptions at a Registry or
// Manager, and discovered-service caches at Users. An entry lives until
// its lease expires; Put with an existing key renews the lease and
// replaces the value; expiry invokes the table's callback exactly once
// (this is the "purge" of the PR taxonomy).
//
// Iteration (Each, Keys) follows insertion order: protocols fan messages
// out while iterating, and a random order would draw network delays in a
// different sequence on every run, breaking deterministic replay.
//
// Entries are pooled: Drop and expiry recycle the entry struct (and the
// lease deadline embedded in it) onto a free list for the next Put, so
// steady-state membership churn allocates nothing and a new lease costs
// one object.
//
// A LeaseTable is a value embedded in its owner and prepared once with
// Init; entries point back at it, so it must never be copied afterwards
// (go vet's copylocks check enforces that through the noCopy marker).
type LeaseTable[K comparable, V any] struct {
	_        noCopy
	k        *sim.Kernel
	onExpire func(owner any, key K, v V)
	owner    any
	entries  map[K]*leaseEntry[K, V]
	order    []K
	free     *leaseEntry[K, V]

	// scratch snapshots the key order for Each/EachKey so callbacks may
	// mutate the table mid-iteration; iterating marks it in use so a
	// nested iteration falls back to a private copy.
	scratch   []K
	iterating bool
}

// noCopy makes go vet reject copies of an initialised table; see
// sim.Deadline for the idiom.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

type leaseEntry[K comparable, V any] struct {
	t        *LeaseTable[K, V]
	key      K
	value    V
	deadline sim.Deadline
	next     *leaseEntry[K, V] // free-list link while recycled
}

func (e *leaseEntry[K, V]) expire() { e.t.expire(e.key) }

// leaseExpired is the static deadline callback shared by every entry of
// every table. It reaches the entry through an interface because a
// generic function value would carry its type dictionary in a closure —
// one more object per entry.
func leaseExpired(x any) { x.(interface{ expire() }).expire() }

// Init prepares an empty table on the given kernel. On expiry the table
// calls onExpire(owner, key, value) — a static function and the owning
// protocol instance, so the callback costs no closure; onExpire may be
// nil.
func (t *LeaseTable[K, V]) Init(k *sim.Kernel, onExpire func(owner any, key K, v V), owner any) {
	t.k, t.onExpire, t.owner = k, onExpire, owner
	t.entries = make(map[K]*leaseEntry[K, V])
}

// alloc takes an entry from the free list or makes a new one. The entry's
// deadline is bound to the entry once and follows it through every
// recycle: the expiry callback reads the entry's current key.
func (t *LeaseTable[K, V]) alloc() *leaseEntry[K, V] {
	e := t.free
	if e == nil {
		e = &leaseEntry[K, V]{t: t}
		e.deadline.Init(t.k, leaseExpired, e)
		return e
	}
	t.free = e.next
	e.next = nil
	return e
}

// release returns an entry to the free list, dropping its value so the
// pool does not pin payloads for GC.
func (t *LeaseTable[K, V]) release(e *leaseEntry[K, V]) {
	var zeroV V
	var zeroK K
	e.value = zeroV
	e.key = zeroK
	e.next = t.free
	t.free = e
}

// Put inserts or replaces the entry and (re)starts its lease.
func (t *LeaseTable[K, V]) Put(key K, v V, lease sim.Duration) {
	e, ok := t.entries[key]
	if !ok {
		e = t.alloc()
		e.key = key
		t.entries[key] = e
		t.order = append(t.order, key)
	}
	e.value = v
	e.deadline.SetAfter(lease)
}

// Renew extends an existing entry's lease, reporting whether the entry was
// present. A renewal of an absent (purged) entry fails — that failure is
// what triggers PR3/PR4 resubscription flows.
func (t *LeaseTable[K, V]) Renew(key K, lease sim.Duration) bool {
	e, ok := t.entries[key]
	if !ok {
		return false
	}
	e.deadline.SetAfter(lease)
	return true
}

// RenewStrict extends an existing entry's lease only while the lease is
// still live: a renewal processed at or after the expiry instant is
// refused even if the purge callback has not fired yet (kernel event
// ordering can deliver a renewal and the expiry at the same timestamp in
// either order). Hardened holders use this instead of Renew so the
// renewal/purge race always resolves toward re-registration, keeping the
// holder's view and the oracle's lease ledger in lockstep.
func (t *LeaseTable[K, V]) RenewStrict(key K, lease sim.Duration) bool {
	e, ok := t.entries[key]
	if !ok || t.k.Now() >= e.deadline.When() {
		return false
	}
	e.deadline.SetAfter(lease)
	return true
}

// Get returns the live value for key.
func (t *LeaseTable[K, V]) Get(key K) (V, bool) {
	e, ok := t.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.value, true
}

// Update replaces the value without touching the lease, reporting whether
// the entry existed. Registries use it to refresh a registration's SD
// from an Update without extending the registration lease.
func (t *LeaseTable[K, V]) Update(key K, v V) bool {
	e, ok := t.entries[key]
	if !ok {
		return false
	}
	e.value = v
	return true
}

// Clear drops every entry without invoking expiry callbacks, disarming
// all lease deadlines. Protocols use it to quiesce an instance whose
// node is being retired: afterwards the table owns no pending kernel
// events.
func (t *LeaseTable[K, V]) Clear() {
	for _, e := range t.entries {
		e.deadline.Clear()
		t.release(e)
	}
	clear(t.entries)
	t.order = t.order[:0]
}

// Rearm resets the table for workspace reuse after a Kernel.Reset: every
// entry is recycled and its deadline's event reference dropped without
// touching the kernel (the old events no longer exist). Capacity — the
// map, the order slice and the pooled entries — survives into the next
// run.
func (t *LeaseTable[K, V]) Rearm() {
	for _, e := range t.entries {
		e.deadline.Rearm()
		t.release(e)
	}
	clear(t.entries)
	t.order = t.order[:0]
	t.iterating = false
}

// Drop removes the entry without invoking the expiry callback.
func (t *LeaseTable[K, V]) Drop(key K) {
	if e, ok := t.entries[key]; ok {
		e.deadline.Clear()
		delete(t.entries, key)
		t.unorder(key)
		t.release(e)
	}
}

// Expiry reports when the entry's lease runs out.
func (t *LeaseTable[K, V]) Expiry(key K) (sim.Time, bool) {
	e, ok := t.entries[key]
	if !ok {
		return 0, false
	}
	return e.deadline.When(), true
}

// Len reports the number of live entries.
func (t *LeaseTable[K, V]) Len() int { return len(t.entries) }

// Keys returns the live keys in insertion order as a fresh slice.
func (t *LeaseTable[K, V]) Keys() []K {
	out := make([]K, len(t.order))
	copy(out, t.order)
	return out
}

// snapshotOrder captures the current key order into the reusable scratch
// buffer (or a fresh copy when an iteration is already running), so the
// iteration survives entries being added or removed by the callback.
func (t *LeaseTable[K, V]) snapshotOrder() (keys []K, scratch bool) {
	if t.iterating {
		return t.Keys(), false
	}
	t.iterating = true
	t.scratch = append(t.scratch[:0], t.order...)
	return t.scratch, true
}

// Each calls fn for every live entry in insertion order. Entries removed
// by fn (Drop, expiry cascades) are skipped; entries added by fn are not
// visited.
func (t *LeaseTable[K, V]) Each(fn func(K, V)) {
	keys, scratch := t.snapshotOrder()
	for _, k := range keys {
		if e, ok := t.entries[k]; ok {
			fn(k, e.value)
		}
	}
	if scratch {
		t.iterating = false
	}
}

// RenewIf extends the lease of every entry whose key satisfies want, in
// insertion order. want must not touch the table: the walk reads the live
// order with one lookup per entry, no snapshot.
func (t *LeaseTable[K, V]) RenewIf(lease sim.Duration, want func(K) bool) {
	for _, k := range t.order {
		if want(k) {
			t.entries[k].deadline.SetAfter(lease)
		}
	}
}

// EachKey calls fn for every live key in insertion order, with the same
// mid-iteration mutation guarantees as Each and no value copies.
func (t *LeaseTable[K, V]) EachKey(fn func(K)) {
	keys, scratch := t.snapshotOrder()
	for _, k := range keys {
		if _, ok := t.entries[k]; ok {
			fn(k)
		}
	}
	if scratch {
		t.iterating = false
	}
}

func (t *LeaseTable[K, V]) expire(key K) {
	e, ok := t.entries[key]
	if !ok {
		return
	}
	delete(t.entries, key)
	t.unorder(key)
	value := e.value
	t.release(e)
	if t.onExpire != nil {
		t.onExpire(t.owner, key, value)
	}
}

func (t *LeaseTable[K, V]) unorder(key K) {
	for i, k := range t.order {
		if k == key {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
}
