package model

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind ValueKind
	}{
		{NullValue(), KindNull},
		{IntValue(42), KindInt},
		{FloatValue(3.5), KindFloat},
		{BoolValue(true), KindBool},
		{StringValue("hi"), KindString},
		{IntArrayValue([]int64{1, 2}), KindIntArray},
		{FloatArrayValue([]float64{1.5}), KindFloatArray},
		{StringArrayValue([]string{"a", "b"}), KindStringArray},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind = %v, want %v", c.v.Kind(), c.kind)
		}
	}
	if IntValue(42).Int() != 42 {
		t.Error("Int accessor")
	}
	if FloatValue(3.5).Float() != 3.5 {
		t.Error("Float accessor")
	}
	if IntValue(7).Float() != 7.0 {
		t.Error("int-as-float conversion")
	}
	if !BoolValue(true).Bool() || BoolValue(false).Bool() {
		t.Error("Bool accessor")
	}
	if StringValue("hi").Str() != "hi" {
		t.Error("Str accessor")
	}
	if NullValue().Kind() != KindNull || IntValue(0).Kind() == KindNull {
		t.Error("IsNull")
	}
}

func TestValueEqual(t *testing.T) {
	if !IntValue(1).Equal(IntValue(1)) {
		t.Error("equal ints")
	}
	if IntValue(1).Equal(IntValue(2)) {
		t.Error("distinct ints")
	}
	if IntValue(1).Equal(FloatValue(1)) {
		t.Error("kind mismatch must not be equal")
	}
	if !IntArrayValue([]int64{1, 2}).Equal(IntArrayValue([]int64{1, 2})) {
		t.Error("equal arrays")
	}
	if IntArrayValue([]int64{1, 2}).Equal(IntArrayValue([]int64{1, 3})) {
		t.Error("distinct arrays")
	}
	if !StringArrayValue([]string{"x"}).Equal(StringArrayValue([]string{"x"})) {
		t.Error("equal string arrays")
	}
	if FloatArrayValue([]float64{1}).Equal(FloatArrayValue([]float64{1, 2})) {
		t.Error("length mismatch")
	}
}

func TestValueCompare(t *testing.T) {
	if IntValue(1).Compare(IntValue(2)) != -1 {
		t.Error("1 < 2")
	}
	if IntValue(2).Compare(FloatValue(1.5)) != 1 {
		t.Error("mixed numeric compare")
	}
	if StringValue("a").Compare(StringValue("b")) != -1 {
		t.Error("string compare")
	}
	if BoolValue(false).Compare(BoolValue(true)) != -1 {
		t.Error("bool compare")
	}
	if IntValue(5).Compare(IntValue(5)) != 0 {
		t.Error("equal compare")
	}
}

func TestIntervalSemantics(t *testing.T) {
	iv := Interval{10, 20}
	if !iv.Contains(10) {
		t.Error("start inclusive")
	}
	if iv.Contains(20) {
		t.Error("end exclusive")
	}
	if iv.Contains(9) || iv.Contains(21) {
		t.Error("outside")
	}
	if !iv.ContainedIn(10, 19) || iv.ContainedIn(11, 19) || iv.ContainedIn(10, 18) {
		t.Error("CONTAINED IN is the closed range [a, b]")
	}
	if !(Interval{5, TSInfinity}).ContainedIn(1, math.MaxInt64) || !iv.ContainedIn(1, math.MaxInt64) {
		t.Error("a closed range ending at MaxInt64 holds every interval that starts in it")
	}
}

// TestStepsNeverWrap: a series ending at MaxInt64 stops at its last step
// instead of wrapping past it, and a done ctx stops it before a step.
func TestStepsNeverWrap(t *testing.T) {
	ctx := context.Background()
	var got []Timestamp
	for s := NewSteps(1, math.MaxInt64, 1<<62); ; {
		ts, ok, err := s.Next(ctx)
		if err != nil || !ok {
			break
		}
		got = append(got, ts)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 1+1<<62 {
		t.Fatalf("steps %v, want [1 %d]", got, Timestamp(1+1<<62))
	}
	if _, ok, _ := NewSteps(5, 4, 1).Next(ctx); ok {
		t.Error("a series that ends before it starts must be empty")
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, ok, err := NewSteps(0, 10, 1).Next(done); ok || err == nil {
		t.Error("a done ctx must stop the series")
	}
}

func TestDirectionReverse(t *testing.T) {
	if Outgoing.Reverse() != Incoming || Incoming.Reverse() != Outgoing || Both.Reverse() != Both {
		t.Error("reverse")
	}
	if Outgoing.String() != "OUTGOING" || Incoming.String() != "INCOMING" || Both.String() != "BOTH" {
		t.Error("names")
	}
}

func TestNodeLabelOps(t *testing.T) {
	n := &Node{ID: 1, Labels: []string{"B", "A"}}
	if !n.HasLabel("A") || n.HasLabel("C") {
		t.Error("HasLabel")
	}
	n.SortLabels()
	if n.Labels[0] != "A" {
		t.Error("SortLabels")
	}
}

func TestRelOther(t *testing.T) {
	r := &Rel{ID: 1, Src: 10, Tgt: 20}
	if r.Other(10) != 20 || r.Other(20) != 10 {
		t.Error("Other")
	}
}

func TestApplyToNodeDeltas(t *testing.T) {
	n := &Node{ID: 1, Labels: []string{"A"}, Props: Properties{"x": IntValue(1)}}
	u := UpdateNode(5, 1, []string{"B"}, []string{"A"}, Properties{"y": IntValue(2)}, []string{"x"})
	u.ApplyToNode(n)
	if n.HasLabel("A") || !n.HasLabel("B") {
		t.Errorf("labels after delta: %v", n.Labels)
	}
	if _, ok := n.Props["x"]; ok {
		t.Error("x should be deleted")
	}
	if n.Props["y"].Int() != 2 {
		t.Error("y should be set")
	}
}

func TestApplyToNodeNilProps(t *testing.T) {
	n := &Node{ID: 1}
	u := UpdateNode(5, 1, nil, nil, Properties{"y": IntValue(2)}, nil)
	u.ApplyToNode(n)
	if n.Props["y"].Int() != 2 {
		t.Error("apply to nil props must allocate")
	}
}

func TestApplyToRelDeltas(t *testing.T) {
	r := &Rel{ID: 1, Props: Properties{"w": FloatValue(1)}}
	u := UpdateRel(5, 1, 0, 0, Properties{"w": FloatValue(2)}, nil)
	u.ApplyToRel(r)
	if r.Props["w"].Float() != 2 {
		t.Error("set prop")
	}
	u2 := UpdateRel(6, 1, 0, 0, nil, []string{"w"})
	u2.ApplyToRel(r)
	if len(r.Props) != 0 {
		t.Error("del prop")
	}
}

func TestValidateStream(t *testing.T) {
	ok := []Update{AddNode(1, 1, nil, nil), AddNode(1, 2, nil, nil), AddNode(3, 3, nil, nil)}
	if err := ValidateStream(ok); err != nil {
		t.Errorf("monotone stream rejected: %v", err)
	}
	bad := []Update{AddNode(3, 1, nil, nil), AddNode(1, 2, nil, nil)}
	if err := ValidateStream(bad); err == nil {
		t.Error("non-monotone stream accepted")
	}
}

func TestEntityKeyDisjoint(t *testing.T) {
	n := AddNode(1, 7, nil, nil)
	r := AddRel(1, 7, 1, 2, "", nil)
	if n.EntityKey() == r.EntityKey() {
		t.Error("node and rel keys must differ for the same numeric id")
	}
}

func TestAppInterval(t *testing.T) {
	n := &Node{Props: Properties{AppStartKey: IntValue(5), AppEndKey: IntValue(9)}}
	iv := n.AppInterval()
	if iv.Start != 5 || iv.End != 9 {
		t.Errorf("app interval = %+v", iv)
	}
	empty := &Node{}
	iv = empty.AppInterval()
	if iv.Start != 0 || iv.End != TSInfinity {
		t.Error("default app interval should be [0, inf)")
	}
	r := &Rel{Props: Properties{AppStartKey: IntValue(2)}}
	if r.AppInterval().Start != 2 || r.AppInterval().End != TSInfinity {
		t.Error("rel app interval with only start set")
	}
}

func TestPropertiesCloneEqual(t *testing.T) {
	p := Properties{"a": IntValue(1), "b": StringValue("x")}
	c := p.Clone()
	if !p.Equal(c) {
		t.Error("clone equal")
	}
	c["a"] = IntValue(2)
	if p.Equal(c) {
		t.Error("mutated clone must differ")
	}
	if p["a"].Int() != 1 {
		t.Error("clone must not alias")
	}
	var nilP Properties
	if nilP.Clone() != nil {
		t.Error("nil clone")
	}
}

func TestValueApproxBytesMonotone(t *testing.T) {
	if StringValue("abcdef").ApproxBytes() <= StringValue("a").ApproxBytes() {
		t.Error("longer strings should cost more")
	}
	if IntArrayValue(make([]int64, 10)).ApproxBytes() <= IntArrayValue(make([]int64, 1)).ApproxBytes() {
		t.Error("longer arrays should cost more")
	}
	if StringArrayValue([]string{"aa", "bb"}).ApproxBytes() <= 24 {
		t.Error("string array accounts elements")
	}
}

func TestUpdateString(t *testing.T) {
	u := AddNode(3, 9, []string{"B", "A"}, nil)
	if u.String() == "" {
		t.Error("String should render")
	}
	r := DeleteRel(4, 2, 1, 2)
	if r.String() == "" {
		t.Error("rel String")
	}
}

func TestApplyToNodeIdempotentAddLabel(t *testing.T) {
	n := &Node{ID: 1, Labels: []string{"A"}}
	u := UpdateNode(5, 1, []string{"A"}, nil, nil, nil)
	u.ApplyToNode(n)
	if len(n.Labels) != 1 {
		t.Error("adding an existing label must not duplicate it")
	}
}

func TestRandomDeltaFoldMatchesDirectState(t *testing.T) {
	// Property: folding a random sequence of property deltas through
	// ApplyToNode yields the same map as applying them to a plain map.
	rng := rand.New(rand.NewSource(1))
	keys := []string{"a", "b", "c", "d"}
	n := &Node{ID: 1, Props: Properties{}}
	want := map[string]int64{}
	for i := 0; i < 500; i++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(3) == 0 {
			u := UpdateNode(Timestamp(i), 1, nil, nil, nil, []string{k})
			u.ApplyToNode(n)
			delete(want, k)
		} else {
			v := rng.Int63n(100)
			u := UpdateNode(Timestamp(i), 1, nil, nil, Properties{k: IntValue(v)}, nil)
			u.ApplyToNode(n)
			want[k] = v
		}
	}
	if len(n.Props) != len(want) {
		t.Fatalf("size mismatch: %d vs %d", len(n.Props), len(want))
	}
	for k, v := range want {
		if n.Props[k].Int() != v {
			t.Errorf("key %s: got %d want %d", k, n.Props[k].Int(), v)
		}
	}
}

// The helpers below are the tests' own: no binary needs them.

// Reverse flips Outgoing and Incoming; Both is its own reverse.
func (d Direction) Reverse() Direction {
	switch d {
	case Outgoing:
		return Incoming
	case Incoming:
		return Outgoing
	}
	return Both
}

// Other returns the endpoint opposite to id (for undirected traversal).
func (r *Rel) Other(id NodeID) NodeID {
	if r.Src == id {
		return r.Tgt
	}
	return r.Src
}

// SortLabels orders labels lexicographically, normalizing the set for
// comparison and encoding.
func (n *Node) SortLabels() { sort.Strings(n.Labels) }

// ValidateStream checks the ordering constraint of Sec 3: updates must be
// ordered by non-decreasing timestamps.
func ValidateStream(us []Update) error {
	for i := 1; i < len(us); i++ {
		if us[i].TS < us[i-1].TS {
			return fmt.Errorf("%w: position %d (ts %d after %d)", ErrNonMonotonic, i, us[i].TS, us[i-1].TS)
		}
	}
	return nil
}
