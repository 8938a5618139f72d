package rec

import (
	"reflect"
	"testing"
	"time"
)

// checkSteps asserts that steps is tl's split into emissions: each unit's
// (a direct client's, or a group's) steps concatenate to its sends in
// recorded order, a direct step is one send, a group step holds at most
// RelayCapacity sends whose gaps are at most coalesce, a group's next step
// starts only past that gap or after a full step, and steps come in the
// order of their first sends.
func checkSteps(t testing.TB, tl *Timeline, coalesce time.Duration, steps [][]Event) {
	t.Helper()
	unit := func(e Event) int {
		if g := tl.Clients[e.Client].Relay; g >= 0 {
			return -1 - g
		}
		return e.Client
	}
	want := make(map[int][]Event)
	for _, e := range tl.Events {
		if e.Kind == EvSend {
			want[unit(e)] = append(want[unit(e)], e)
		}
	}
	got := make(map[int][]Event)
	last := make(map[int][]Event) // each unit's previous step
	var first time.Duration
	for i, s := range steps {
		if len(s) == 0 {
			t.Fatalf("step %d is empty", i)
		}
		if s[0].At < first {
			t.Fatalf("step %d starts at %v, before step %d's %v", i, s[0].At, i-1, first)
		}
		first = s[0].At
		u := unit(s[0])
		switch {
		case u >= 0 && len(s) != 1:
			t.Fatalf("direct step %d holds %d sends", i, len(s))
		case u < 0 && tl.RelayCapacity > 0 && len(s) > tl.RelayCapacity:
			t.Fatalf("group step %d holds %d sends, capacity %d", i, len(s), tl.RelayCapacity)
		}
		for j, e := range s {
			if e.Kind != EvSend || unit(e) != u {
				t.Fatalf("step %d mixes %+v into unit %d", i, e, u)
			}
			if j > 0 && e.At-s[j-1].At > coalesce {
				t.Fatalf("step %d spans a %v gap", i, e.At-s[j-1].At)
			}
		}
		if p, ok := last[u]; ok && u < 0 && s[0].At-p[len(p)-1].At <= coalesce &&
			(tl.RelayCapacity == 0 || len(p) < tl.RelayCapacity) {
			t.Fatalf("step %d could have joined the group's previous step", i)
		}
		last[u] = s
		got[u] = append(got[u], s...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("steps do not partition the sends in recorded order:\ngot  %v\nwant %v", got, want)
	}
}

func TestTimelineSteps(t *testing.T) {
	ms := time.Millisecond
	send := func(at time.Duration, client int, seq uint64) Event {
		return Event{At: at, Kind: EvSend, Client: client, Seq: seq}
	}
	clients := []Client{
		{ID: "d0", Relay: -1},
		{ID: "d1", Relay: -1},
		{ID: "g0a", Path: PathTrunked, Relay: 0},
		{ID: "g0b", Path: PathTrunked, Relay: 0},
		{ID: "g1", Path: PathRelayed, Relay: 1},
	}
	for _, tc := range []struct {
		name   string
		cap    int
		events []Event
		want   [][]Event
	}{{
		name:   "direct sends never coalesce",
		cap:    8,
		events: []Event{send(0, 0, 1), send(0, 1, 1), send(ms, 0, 2)},
		want:   [][]Event{{send(0, 0, 1)}, {send(0, 1, 1)}, {send(ms, 0, 2)}},
	}, {
		name: "a group run splits at a gap over 2 ms",
		cap:  8,
		events: []Event{send(0, 2, 1), send(ms, 3, 1), send(3*ms, 2, 2),
			send(5*ms+1, 3, 2)},
		want: [][]Event{{send(0, 2, 1), send(ms, 3, 1), send(3*ms, 2, 2)}, {send(5*ms+1, 3, 2)}},
	}, {
		name:   "a group run splits at RelayCapacity",
		cap:    2,
		events: []Event{send(0, 2, 1), send(0, 3, 1), send(0, 2, 2), send(ms, 3, 2), send(ms, 2, 3)},
		want:   [][]Event{{send(0, 2, 1), send(0, 3, 1)}, {send(0, 2, 2), send(ms, 3, 2)}, {send(ms, 2, 3)}},
	}, {
		name: "groups and direct sends interleave without splitting each other",
		cap:  8,
		events: []Event{send(0, 2, 1), send(0, 4, 1), send(ms, 0, 1), send(ms, 3, 1),
			send(2*ms, 4, 2)},
		want: [][]Event{{send(0, 2, 1), send(ms, 3, 1)}, {send(0, 4, 1), send(2*ms, 4, 2)}, {send(ms, 0, 1)}},
	}, {
		name: "acks and timeouts are not sends",
		cap:  8,
		events: []Event{send(0, 2, 1), {At: ms, Kind: EvAck, Client: 2, Seq: 1},
			{At: ms, Kind: EvTimeout, Client: 0, Seq: 9}, send(2*ms, 3, 1)},
		want: [][]Event{{send(0, 2, 1), send(2*ms, 3, 1)}},
	}, {
		name:   "no capacity means no limit",
		cap:    0,
		events: []Event{send(0, 2, 1), send(0, 3, 1), send(0, 2, 2)},
		want:   [][]Event{{send(0, 2, 1), send(0, 3, 1), send(0, 2, 2)}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tl := &Timeline{RelayPeriod: time.Second, RelayCapacity: tc.cap, Clients: clients, Events: tc.events}
			if err := tl.Validate(); err != nil {
				t.Fatal(err)
			}
			got := tl.Steps(Coalesce)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("steps\ngot  %v\nwant %v", got, tc.want)
			}
			checkSteps(t, tl, Coalesce, got)
		})
	}
}
