package model

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestValueSize pins the layout: Value is the element type of every
// Properties map, and a Go map allocates eight slots at a time, so a byte
// here is eight bytes per property-carrying entity per resident graph. Two
// words put a map group of eight slots at 8 + 8 × (16 + 16) = 264 B, in the
// 288 B size class; the 40-byte layout before it needed 456 B, class 480.
// Value must also stay non-comparable: == would compare box pointers, not
// strings. This is the only file in the repository that imports unsafe.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable; == would compare boxes, not contents")
	}
}

var sinkValue Value

// Null and the scalars point at a shared sentinel and touch no heap; a
// string or an array costs the one box that holds it.
func TestValueConstructorAllocs(t *testing.T) {
	s, ia, fa, sa := "hi", []int64{1}, []float64{1}, []string{"a"}
	for _, c := range []struct {
		name string
		mk   func() Value
		max  float64
	}{
		{"null", NullValue, 0},
		{"int", func() Value { return IntValue(7) }, 0},
		{"float", func() Value { return FloatValue(1.5) }, 0},
		{"bool", func() Value { return BoolValue(true) }, 0},
		{"string", func() Value { return StringValue(s) }, 1},
		{"int[]", func() Value { return IntArrayValue(ia) }, 1},
		{"float[]", func() Value { return FloatArrayValue(fa) }, 1},
		{"string[]", func() Value { return StringArrayValue(sa) }, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { sinkValue = c.mk() }); got > c.max {
			t.Errorf("%s: %v allocations per construction, want <= %v", c.name, got, c.max)
		}
	}
}

// goldenValues covers all eight kinds with the edge cases a layout change
// could disturb: nil and empty arrays, NaN, both zeros, MinInt64.
var goldenValues = []struct {
	name string
	v    Value
}{
	{"null", NullValue()},
	{"zero", Value{}},
	{"int0", IntValue(0)},
	{"int42", IntValue(42)},
	{"intMin", IntValue(math.MinInt64)},
	{"float1.5", FloatValue(1.5)},
	{"float-2.9", FloatValue(-2.9)},
	{"float+0", FloatValue(0)},
	{"float-0", FloatValue(math.Copysign(0, -1))},
	{"floatNaN", FloatValue(math.NaN())},
	{"float42", FloatValue(42)},
	{"true", BoolValue(true)},
	{"false", BoolValue(false)},
	{"strEmpty", StringValue("")},
	{"strHi", StringValue("hi")},
	{"strQuote", StringValue("a\"b\n")},
	{"ia", IntArrayValue([]int64{1, -2, math.MinInt64})},
	{"iaNil", IntArrayValue(nil)},
	{"iaEmpty", IntArrayValue([]int64{})},
	{"fa", FloatArrayValue([]float64{1.5, math.Inf(1)})},
	{"faNaN", FloatArrayValue([]float64{math.NaN()})},
	{"faNil", FloatArrayValue(nil)},
	{"faEmpty", FloatArrayValue([]float64{})},
	{"sa", StringArrayValue([]string{"a", "", "bcd"})},
	{"saNil", StringArrayValue(nil)},
	{"saEmpty", StringArrayValue([]string{})},
}

// goldenAccessors holds, per goldenValues row, every accessor's output as
// recorded from the 104-byte layout of PR 18 (6d1dc8a) — except Int(),
// which there returned the raw payload word for every kind (float1.5 gave
// 4609434218613702656 and true gave 1); the rows below are the fixed
// accessor: floats truncate, non-numeric kinds are 0, and NaN's row says
// "arch" because Go leaves int64(NaN) to the implementation. Float()
// likewise answered with the raw payload word, so true's Float-bits cell
// read 1 (4.9e-324, which Cypher's 0.0 + true returned); it now reads 0, as
// for every kind that is not a number.
// Columns: Kind IsNull Int Float-bits Bool Str IntArray FloatArray
// StringArray String ApproxBytes.
var goldenAccessors = []string{
	`null true 0 0 false "" []int64(nil) []float64(nil) []string(nil) null 8`,
	`null true 0 0 false "" []int64(nil) []float64(nil) []string(nil) null 8`,
	`int false 0 0 false "" []int64(nil) []float64(nil) []string(nil) 0 8`,
	`int false 42 4045000000000000 true "" []int64(nil) []float64(nil) []string(nil) 42 8`,
	`int false -9223372036854775808 c3e0000000000000 true "" []int64(nil) []float64(nil) []string(nil) -9223372036854775808 8`,
	`float false 1 3ff8000000000000 true "" []int64(nil) []float64(nil) []string(nil) 1.5 8`,
	`float false -2 c007333333333333 true "" []int64(nil) []float64(nil) []string(nil) -2.9 8`,
	`float false 0 0 false "" []int64(nil) []float64(nil) []string(nil) 0 8`,
	`float false 0 8000000000000000 true "" []int64(nil) []float64(nil) []string(nil) -0 8`,
	`float false arch 7ff8000000000001 true "" []int64(nil) []float64(nil) []string(nil) NaN 8`,
	`float false 42 4045000000000000 true "" []int64(nil) []float64(nil) []string(nil) 42 8`,
	`bool false 0 0 true "" []int64(nil) []float64(nil) []string(nil) true 8`,
	`bool false 0 0 false "" []int64(nil) []float64(nil) []string(nil) false 8`,
	`string false 0 0 false "" []int64(nil) []float64(nil) []string(nil) "" 16`,
	`string false 0 0 false "hi" []int64(nil) []float64(nil) []string(nil) "hi" 18`,
	`string false 0 0 false "a\"b\n" []int64(nil) []float64(nil) []string(nil) "a\"b\n" 20`,
	`int[] false 0 0 false "" []int64{1, -2, -9223372036854775808} []float64(nil) []string(nil) [1 -2 -9223372036854775808] 48`,
	`int[] false 0 0 false "" []int64(nil) []float64(nil) []string(nil) [] 24`,
	`int[] false 0 0 false "" []int64{} []float64(nil) []string(nil) [] 24`,
	`float[] false 0 0 false "" []int64(nil) []float64{1.5, +Inf} []string(nil) [1.5 +Inf] 40`,
	`float[] false 0 0 false "" []int64(nil) []float64{NaN} []string(nil) [NaN] 32`,
	`float[] false 0 0 false "" []int64(nil) []float64(nil) []string(nil) [] 24`,
	`float[] false 0 0 false "" []int64(nil) []float64{} []string(nil) [] 24`,
	`string[] false 0 0 false "" []int64(nil) []float64(nil) []string{"a", "", "bcd"} [a  bcd] 76`,
	`string[] false 0 0 false "" []int64(nil) []float64(nil) []string(nil) [] 24`,
	`string[] false 0 0 false "" []int64(nil) []float64(nil) []string{} [] 24`,
}

// goldenEqual and goldenCompare are the Equal and Compare results of every
// ordered pair of goldenValues, one row per left operand ('=' equal, '.'
// not; '<', '=', '>' for -1, 0, +1), recorded from the same parent.
var goldenEqual = []string{
	"==........................", // null
	"==........................", // zero
	"..=.......................", // int0
	"...=......................", // int42
	"....=.....................", // intMin
	".....=....................", // float1.5
	"......=...................", // float-2.9
	".......=..................", // float+0
	"........=.................", // float-0
	".........=................", // floatNaN
	"..........=...............", // float42
	"...........=..............", // true
	"............=.............", // false
	".............=............", // strEmpty
	"..............=...........", // strHi
	"...............=..........", // strQuote
	"................=.........", // ia
	".................==.......", // iaNil
	".................==.......", // iaEmpty
	"...................=......", // fa
	"..........................", // faNaN
	".....................==...", // faNil
	".....................==...", // faEmpty
	".......................=..", // sa
	"........................==", // saNil
	"........................==", // saEmpty
}

var goldenCompare = []string{
	"==<<<<<<<<<<<<<<<<<<<<<<<<", // null
	"==<<<<<<<<<<<<<<<<<<<<<<<<", // zero
	">>=<><>===<<<<<<<<<<<<<<<<", // int0
	">>>=>>>>>==<<<<<<<<<<<<<<<", // int42
	">><<=<<<<=<<<<<<<<<<<<<<<<", // intMin
	">>><>=>>>=<<<<<<<<<<<<<<<<", // float1.5
	">><<><=<<=<<<<<<<<<<<<<<<<", // float-2.9
	">>=<><>===<<<<<<<<<<<<<<<<", // float+0
	">>=<><>===<<<<<<<<<<<<<<<<", // float-0
	">>=========<<<<<<<<<<<<<<<", // floatNaN
	">>>=>>>>>==<<<<<<<<<<<<<<<", // float42
	">>>>>>>>>>>=><<<<<<<<<<<<<", // true
	">>>>>>>>>>><=<<<<<<<<<<<<<", // false
	">>>>>>>>>>>>>=<<<<<<<<<<<<", // strEmpty
	">>>>>>>>>>>>>>=><<<<<<<<<<", // strHi
	">>>>>>>>>>>>>><=<<<<<<<<<<", // strQuote
	">>>>>>>>>>>>>>>>===<<<<<<<", // ia
	">>>>>>>>>>>>>>>>===<<<<<<<", // iaNil
	">>>>>>>>>>>>>>>>===<<<<<<<", // iaEmpty
	">>>>>>>>>>>>>>>>>>>====<<<", // fa
	">>>>>>>>>>>>>>>>>>>====<<<", // faNaN
	">>>>>>>>>>>>>>>>>>>====<<<", // faNil
	">>>>>>>>>>>>>>>>>>>====<<<", // faEmpty
	">>>>>>>>>>>>>>>>>>>>>>>===", // sa
	">>>>>>>>>>>>>>>>>>>>>>>===", // saNil
	">>>>>>>>>>>>>>>>>>>>>>>===", // saEmpty
}

func accessorRow(v Value) string {
	i := fmt.Sprint(v.Int())
	if v.Kind() == KindFloat && math.IsNaN(v.Float()) {
		i = "arch" // Go leaves int64(NaN) to the implementation
	}
	return fmt.Sprintf("%v %v %s %x %v %q %#v %#v %#v %s %d",
		v.Kind(), v.IsNull(), i, math.Float64bits(v.Float()), v.Bool(), v.Str(),
		v.IntArray(), v.FloatArray(), v.StringArray(), v.String(), v.ApproxBytes())
}

func TestValueGoldenAccessors(t *testing.T) {
	if len(goldenAccessors) != len(goldenValues) || len(goldenEqual) != len(goldenValues) ||
		len(goldenCompare) != len(goldenValues) {
		t.Fatalf("golden tables out of step with the %d values", len(goldenValues))
	}
	for i, c := range goldenValues {
		if got := accessorRow(c.v); got != goldenAccessors[i] {
			t.Errorf("%s accessors:\n got %s\nwant %s", c.name, got, goldenAccessors[i])
		}
		var eq, cmp strings.Builder
		for _, o := range goldenValues {
			eq.WriteByte(".="[b2i(c.v.Equal(o.v))])
			cmp.WriteByte("<=>"[c.v.Compare(o.v)+1])
		}
		if eq.String() != goldenEqual[i] {
			t.Errorf("%s Equal row:\n got %s\nwant %s", c.name, eq.String(), goldenEqual[i])
		}
		if cmp.String() != goldenCompare[i] {
			t.Errorf("%s Compare row:\n got %s\nwant %s", c.name, cmp.String(), goldenCompare[i])
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
