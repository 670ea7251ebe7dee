package discovery

import "repro/internal/sim"

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
// A table costs what it holds. Most tables in a large run hold one or two
// leases (a User's cache, a Jini User's Registries): those entries live
// inline in the table, which is then a linear scan and builds no map.
// Only a table that grows past inlineLeases indexes its keys in a map,
// and takes further entries from chunks it allocates itself. Drop and
// expiry recycle an entry (and the lease deadline embedded in it) onto
// the table's free list for the next Put, so steady-state membership
// churn allocates nothing.
//
// A LeaseTable is a value embedded in its owner and prepared once with
// Init; entries point back at it, so it must never be copied afterwards
// (go vet's copylocks check enforces that through the noCopy marker).
type LeaseTable[K comparable, V any] struct {
	_        noCopy
	k        *sim.Kernel
	onExpire func(owner any, key K, v V)
	owner    any
	// head and tail link the n live entries in insertion order, so an
	// entry leaves the order in O(1) wherever it sits; index maps keys to
	// them, nil until the table first outgrows the inline entries.
	head, tail *leaseEntry[K, V]
	n          int
	index      map[K]*leaseEntry[K, V]
	inline     [inlineLeases]leaseEntry[K, V]
	free       *leaseEntry[K, V]
	grown      int // length of the last entry chunk; 0 until the first Put

	// scratch snapshots the key order for Each/EachKey so callbacks may
	// mutate the table mid-iteration; iterating marks it in use so a
	// nested iteration falls back to a private copy.
	scratch   []K
	iterating bool
	// strict makes Renew refuse a lease that is already spent (SetStrict).
	strict bool
}

// A table holds inlineLeases entries without a map or a chunk of its
// own; past that, its entry chunks grow from 8 to 256 entries.
const inlineLeases = 2

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
	// prev and next link the live order; next is the free-list link while
	// the entry is recycled.
	prev, next *leaseEntry[K, V]
}

func (e *leaseEntry[K, V]) expire() { e.t.expire(e) }

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
}

// SetStrict marks a lease holder's table strict, right after Init: its
// Renew and RenewIf then refuse a renewal processed at or after the
// expiry instant, even if the purge has not fired yet (the kernel can
// deliver a renewal and the expiry at the same timestamp in either
// order). The renewal/purge race then always resolves toward
// re-registration, keeping the holder's view and the oracle's lease
// ledger in lockstep. Put is unaffected, and Rearm keeps the mark.
func (t *LeaseTable[K, V]) SetStrict(strict bool) { t.strict = strict }

// pool threads a chunk of entries onto the free list, first entry first.
// Each entry's deadline is bound to the entry once and follows it through
// every recycle: the expiry callback reads the entry's current key.
func (t *LeaseTable[K, V]) pool(chunk []leaseEntry[K, V]) {
	for i := len(chunk) - 1; i >= 0; i-- {
		e := &chunk[i]
		e.t = t
		e.deadline.Init(t.k, leaseExpired, e)
		e.next = t.free
		t.free = e
	}
}

// alloc takes an entry from the free list. The first one pools the
// inline entries; once they are taken, the table grows by chunks.
func (t *LeaseTable[K, V]) alloc() *leaseEntry[K, V] {
	switch {
	case t.free != nil:
	case t.grown == 0:
		t.grown = inlineLeases
		t.pool(t.inline[:])
	default:
		t.pool(sim.Chunk[leaseEntry[K, V]](&t.grown, 8, 256))
	}
	e := t.free
	t.free = e.next
	e.next = nil
	return e
}

// lookup finds the live entry for key, nil if there is none.
func (t *LeaseTable[K, V]) lookup(key K) *leaseEntry[K, V] {
	if t.index != nil {
		return t.index[key]
	}
	for e := t.head; e != nil; e = e.next {
		if e.key == key {
			return e
		}
	}
	return nil
}

// insert appends a fresh entry to the order, indexing the table once it
// holds more than the inline entries.
func (t *LeaseTable[K, V]) insert(e *leaseEntry[K, V]) {
	if e.prev = t.tail; t.tail != nil {
		t.tail.next = e
	} else {
		t.head = e
	}
	t.tail = e
	t.n++
	switch {
	case t.index != nil:
		t.index[e.key] = e
	case t.n > inlineLeases:
		t.index = make(map[K]*leaseEntry[K, V], 2*t.n)
		for le := t.head; le != nil; le = le.next {
			t.index[le.key] = le
		}
	}
}

// remove takes a live entry out of the order and the index.
func (t *LeaseTable[K, V]) remove(e *leaseEntry[K, V]) {
	if t.index != nil {
		delete(t.index, e.key)
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	t.n--
}

// release returns an entry to the free list, dropping its value so the
// pool does not pin payloads for GC.
func (t *LeaseTable[K, V]) release(e *leaseEntry[K, V]) {
	var zeroV V
	var zeroK K
	e.value = zeroV
	e.key = zeroK
	e.prev = nil
	e.next = t.free
	t.free = e
}

// Put inserts or replaces the entry and (re)starts its lease.
func (t *LeaseTable[K, V]) Put(key K, v V, lease sim.Duration) {
	e := t.lookup(key)
	if e == nil {
		e = t.alloc()
		e.key = key
		t.insert(e)
	}
	e.value = v
	e.deadline.SetAfter(lease)
}

// Renew extends an existing entry's lease, reporting whether the entry was
// present. A renewal of an absent (purged) entry fails — that failure is
// what triggers PR3/PR4 resubscription flows — and so does, on a strict
// table, a renewal of a spent lease.
func (t *LeaseTable[K, V]) Renew(key K, lease sim.Duration) bool {
	e := t.lookup(key)
	if e == nil || t.spent(e) {
		return false
	}
	e.deadline.SetAfter(lease)
	return true
}

// spent reports whether a strict table refuses to renew e: its lease ran
// out, though the purge may not have fired yet.
func (t *LeaseTable[K, V]) spent(e *leaseEntry[K, V]) bool {
	return t.strict && t.k.Now() >= e.deadline.When()
}

// Get returns the live value for key.
func (t *LeaseTable[K, V]) Get(key K) (V, bool) {
	e := t.lookup(key)
	if e == nil {
		var zero V
		return zero, false
	}
	return e.value, true
}

// Update replaces the value without touching the lease, reporting whether
// the entry existed. Registries use it to refresh a registration's SD
// from an Update without extending the registration lease.
func (t *LeaseTable[K, V]) Update(key K, v V) bool {
	e := t.lookup(key)
	if e == nil {
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
	for e := t.head; e != nil; e = e.next {
		e.deadline.Clear()
	}
	t.releaseAll()
}

// Rearm resets the table for workspace reuse after a Kernel.Reset: every
// entry is recycled and its deadline's event reference dropped without
// touching the kernel (the old events no longer exist). Capacity — the
// index and the pooled entries — survives into the next run.
func (t *LeaseTable[K, V]) Rearm() {
	for e := t.head; e != nil; e = e.next {
		e.deadline.Rearm()
	}
	t.releaseAll()
	t.iterating = false
}

// releaseAll recycles every live entry, in order, leaving the table empty.
func (t *LeaseTable[K, V]) releaseAll() {
	for e := t.head; e != nil; {
		next := e.next
		t.release(e)
		e = next
	}
	t.head, t.tail, t.n = nil, nil, 0
	clear(t.index)
}

// Drop removes the entry without invoking the expiry callback.
func (t *LeaseTable[K, V]) Drop(key K) {
	if e := t.lookup(key); e != nil {
		e.deadline.Clear()
		t.remove(e)
		t.release(e)
	}
}

// Expiry reports when the entry's lease runs out.
func (t *LeaseTable[K, V]) Expiry(key K) (sim.Time, bool) {
	e := t.lookup(key)
	if e == nil {
		return 0, false
	}
	return e.deadline.When(), true
}

// Len reports the number of live entries.
func (t *LeaseTable[K, V]) Len() int { return t.n }

// Keys returns the live keys in insertion order as a fresh slice.
func (t *LeaseTable[K, V]) Keys() []K { return t.appendKeys(make([]K, 0, t.n)) }

func (t *LeaseTable[K, V]) appendKeys(keys []K) []K {
	for e := t.head; e != nil; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// snapshotOrder captures the current key order into the reusable scratch
// buffer (or a fresh copy when an iteration is already running), so the
// iteration survives entries being added or removed by the callback.
func (t *LeaseTable[K, V]) snapshotOrder() (keys []K, scratch bool) {
	if t.iterating {
		return t.Keys(), false
	}
	t.iterating = true
	t.scratch = t.appendKeys(t.scratch[:0])
	return t.scratch, true
}

// Each calls fn for every live entry in insertion order. Entries removed
// by fn (Drop, expiry cascades) are skipped; entries added by fn are not
// visited.
func (t *LeaseTable[K, V]) Each(fn func(K, V)) {
	keys, scratch := t.snapshotOrder()
	for _, k := range keys {
		if e := t.lookup(k); e != nil {
			fn(k, e.value)
		}
	}
	if scratch {
		t.iterating = false
	}
}

// RenewIf extends the lease of every entry whose key satisfies want, in
// insertion order, and reports whether it renewed any: Renew for each such
// key, strictness included, in one walk. want must not touch the table:
// the walk reads the live order directly, no snapshot, no lookups.
func (t *LeaseTable[K, V]) RenewIf(lease sim.Duration, want func(K) bool) bool {
	renewed := false
	for e := t.head; e != nil; e = e.next {
		if want(e.key) && !t.spent(e) {
			e.deadline.SetAfter(lease)
			renewed = true
		}
	}
	return renewed
}

// EachKey calls fn for every live key in insertion order, with the same
// mid-iteration mutation guarantees as Each and no value copies.
func (t *LeaseTable[K, V]) EachKey(fn func(K)) {
	keys, scratch := t.snapshotOrder()
	for _, k := range keys {
		if t.lookup(k) != nil {
			fn(k)
		}
	}
	if scratch {
		t.iterating = false
	}
}

// expire purges an entry whose deadline fired: only a live entry's
// deadline is ever armed.
func (t *LeaseTable[K, V]) expire(e *leaseEntry[K, V]) {
	key, value := e.key, e.value
	t.remove(e)
	t.release(e)
	if t.onExpire != nil {
		t.onExpire(t.owner, key, value)
	}
}
