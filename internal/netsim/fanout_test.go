package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// sortByArrival must produce exactly the order slices.SortStableFunc by
// arrival instant does — the order every golden was recorded under —
// whatever the train length, however many entries tie, and however wide
// the delays are (a Pareto tail reaches well past 32 bits of
// nanoseconds).
func TestSortByArrivalMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{0, 1, 2, fanInsertionMax - 1, fanInsertionMax, fanInsertionMax + 1, 100, 257, 1000, 4096, 20000}
	for i := 0; i < 40; i++ {
		sizes = append(sizes, rng.Intn(3000))
	}
	delays := map[string]func() sim.Duration{
		"table3":    func() sim.Duration { return 10*sim.Microsecond + sim.Duration(rng.Int63n(int64(90*sim.Microsecond)+1)) },
		"few-ties":  func() sim.Duration { return sim.Duration(rng.Intn(4)) * sim.Microsecond },
		"all-equal": func() sim.Duration { return 0 },
		"one-byte":  func() sim.Duration { return sim.Duration(rng.Intn(3)) << 40 },                        // only a high byte varies
		"wide":      func() sim.Duration { return sim.Duration(rng.Int63n(int64(3 * 3600 * sim.Second))) }, // 44 bits
		"full":      func() sim.Duration { return sim.Duration(rng.Int63()) },
	}
	var tmp []fanEntry
	for name, delay := range delays {
		for _, n := range sizes {
			now := sim.Time(rng.Int63n(int64(3600 * sim.Second)))
			if name == "full" {
				now = 0 // keep now+delay inside int64
			}
			in := make([]fanEntry, n)
			for i := range in {
				in[i] = fanEntry{at: now + delay(), to: int32(i), gen: uint32(rng.Intn(3))}
			}
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(a, b fanEntry) int {
				switch {
				case a.at < b.at:
					return -1
				case a.at > b.at:
					return 1
				default:
					return 0
				}
			})
			got, spare := sortByArrival(in, tmp, now)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: order differs from the stable sort", name, n)
			}
			if n > fanInsertionMax && (len(spare) != n || &spare[0] == &got[0]) {
				t.Fatalf("%s, n=%d: spare buffer has len %d or aliases the result", name, n, len(spare))
			}
			tmp = spare
		}
	}
}

// trainLog records what the delivery train does as the simulation sees
// it: who received what at which instant and at which Fired() count.
type trainLog struct {
	k     *sim.Kernel
	lines []string
}

func (l *trainLog) note(what string, to, from NodeID) {
	l.lines = append(l.lines, fmt.Sprintf("%d #%d %s %d<-%d", l.k.Now(), l.k.Fired(), what, to, from))
}

func (l *trainLog) hash() uint64 {
	h := fnv.New64a()
	for _, s := range l.lines {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// runTrains drives two overlapping trains over one group (plus the
// staggered second copy of the first), with one receiver scheduling a
// timer that lands between two arrivals of the train that woke it and
// another answering with a multicast of its own — a third overlapping
// train, armed from inside a walk — across a Run that ends in mid-train.
func runTrains(members int) *trainLog {
	k := sim.New(7)
	nw := mustNew(k, DefaultConfig())
	l := &trainLog{k: k}
	for i := 0; i < members; i++ {
		n := nw.AddNode("")
		id := n.ID
		n.SetEndpoint(EndpointFunc(func(m *Message) {
			l.note(m.Kind, id, m.From)
			switch {
			case id == 2 && m.Kind == "first":
				k.After(3*sim.Microsecond, func() { l.note("timer", id, id) })
			case id == 3 && m.Kind == "second":
				nw.Multicast(id, Group(1), Outgoing{Kind: "reply", Counted: true}, 1)
			}
		}))
		nw.Join(id, Group(1))
	}
	nw.Multicast(0, Group(1), Outgoing{Kind: "first", Counted: true}, 2)
	k.After(20*sim.Microsecond, func() {
		nw.Multicast(1, Group(1), Outgoing{Kind: "second", Counted: true}, 1)
	})
	k.Run(60 * sim.Microsecond) // a horizon in mid-train…
	l.note("horizon", NoNode, NoNode)
	k.Run(sim.Second) // …which a second Run resumes
	l.note("end", NoNode, NoNode)
	return l
}

// The delivery train must be observably the one recorded before it
// learned to walk in place (sequences below were produced by the
// re-arm-per-instant walker over slices.SortStableFunc): same receivers
// at the same instants in the same order, interleaved identically with a
// handler-scheduled timer and with overlapping trains, at the same
// Fired() throughout.
func TestFanoutTrainMatchesRecordedSequence(t *testing.T) {
	small := runTrains(5)
	if got := small.lines; !slices.Equal(got, recordedSmallTrain) {
		t.Errorf("5-member trains diverged from the recording:\n got %q\nwant %q", got, recordedSmallTrain)
	}
	for _, c := range []struct {
		members int
		lines   int
		last    string
		hash    uint64
	}{
		{40, recordedTrain40Lines, recordedTrain40Last, recordedTrain40Hash},     // insertion-ordered
		{300, recordedTrain300Lines, recordedTrain300Last, recordedTrain300Hash}, // radix-ordered
	} {
		l := runTrains(c.members)
		if len(l.lines) != c.lines || l.lines[len(l.lines)-1] != c.last || l.hash() != c.hash {
			t.Errorf("%d-member trains diverged from the recording: %d lines ending %q, hash %#x; want %d ending %q, hash %#x",
				c.members, len(l.lines), l.lines[len(l.lines)-1], l.hash(), c.lines, c.last, c.hash)
		}
	}
}

// The radix scratch buffer belongs to the Network, not the run: once
// grown it must survive Reset and Rearm, so the second simulation on a
// recycled network orders its trains without allocating.
func TestFanScratchSurvivesResetAndRearm(t *testing.T) {
	const members = 500
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	ep := &countingEndpoint{}
	populate := func() {
		for i := nw.Nodes(); i < members; i++ {
			nw.AddNode("")
		}
		for i := 0; i < members; i++ {
			nw.Node(NodeID(i)).SetEndpoint(ep)
			nw.Join(NodeID(i), Group(1))
		}
	}
	burst := func() {
		for i := 0; i < 4; i++ { // overlapping trains: every pooled fanout grows
			nw.Multicast(NodeID(i), Group(1), Outgoing{Kind: "announce"}, 1)
		}
		k.Run(k.Now() + sim.Second)
	}
	populate()
	burst()
	for name, recycle := range map[string]func(){
		"Reset": func() { nw.Reset(k, DefaultConfig()) },
		"Rearm": func() { nw.Rearm(k, DefaultConfig(), members) },
	} {
		k.Reset(2)
		recycle()
		if cap(nw.fanScratch) < members-1 {
			t.Fatalf("%s dropped the fan-out scratch buffer (cap %d)", name, cap(nw.fanScratch))
		}
		populate()
		if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
			t.Errorf("after %s a %d-member fan-out burst costs %.1f allocs, want 0", name, members, allocs)
		}
	}
	if ep.n == 0 {
		t.Fatal("no deliveries — measurement is vacuous")
	}
}

// Recorded at the parent of the PR that introduced sortByArrival and
// Kernel.AdvanceTo: "<now ns> #<Fired()> <kind> <to><-<from>".
var recordedSmallTrain = []string{
	"27372 #2 first 3<-0",
	"43445 #3 second 0<-1",
	"60000 #3 horizon -1<--1",
	"61615 #4 first 4<-0",
	"63659 #5 second 4<-1",
	"73996 #6 first 1<-0",
	"87834 #7 second 3<-1",
	"89902 #8 first 2<-0",
	"92902 #9 timer 2<-2",
	"103634 #10 reply 2<-3",
	"108624 #11 second 2<-1",
	"134034 #12 reply 0<-3",
	"159161 #13 reply 4<-3",
	"178263 #14 reply 1<-3",
	"1038439 #16 first 3<-0",
	"1066548 #17 first 1<-0",
	"1082801 #18 first 2<-0",
	"1085801 #19 timer 2<-2",
	"1092794 #20 first 4<-0",
	"1000000000 #20 end -1<--1",
}

const (
	recordedTrain40Lines  = 160
	recordedTrain40Last   = "1000000000 #159 end -1<--1"
	recordedTrain40Hash   = 0x1ad2c9c6fa519f2
	recordedTrain300Lines = 1200
	recordedTrain300Last  = "1000000000 #1196 end -1<--1"
	recordedTrain300Hash  = 0x49a7fd7f49103146
)

// A group that grows by one member between trains — arrivals joining a
// running population — grows the radix scratch buffer as append grows a
// slice, not once per train: 2,000 trains from 200 to 2,200 members
// allocate a few dozen buffers in all.
func TestFanScratchGrowsWithHeadroom(t *testing.T) {
	const from, trains = 200, 2000
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	ep := &countingEndpoint{}
	join := func() {
		id := nw.AddNode("").ID
		nw.Node(id).SetEndpoint(ep)
		nw.Join(id, Group(1))
	}
	for i := 0; i < from; i++ {
		join()
	}
	allocs := testing.AllocsPerRun(trains, func() {
		join()
		nw.Multicast(0, Group(1), Outgoing{Kind: "announce"}, 1)
		k.Run(k.Now() + sim.Second)
	}) * trains
	t.Logf("%d trains over a growing group: %.0f objects", trains, allocs)
	// Node slots, the node table and the group's membership grow too; a
	// scratch re-made per train alone would be 2,000.
	if allocs > trains+100 {
		t.Errorf("%d trains over a growing group allocated %.0f objects, want about one node per train", trains, allocs)
	}
	if ep.n == 0 {
		t.Fatal("no deliveries — measurement is vacuous")
	}
}
