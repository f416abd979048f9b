// Package model defines the labeled property graph (LPG) and temporal LPG
// data model from Section 3 of the Aion paper: nodes, relationships,
// property values, validity intervals, and the graph-update stream that a
// temporal store ingests.
package model

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
)

// ValueKind enumerates the property value types supported by the LPG model:
// primitives, strings, and primitive arrays (Sec 3).
type ValueKind uint8

const (
	// KindNull is the zero value; a property that was deleted or never set.
	KindNull ValueKind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindBool is a boolean.
	KindBool
	// KindString is a UTF-8 string.
	KindString
	// KindIntArray is an array of 64-bit integers.
	KindIntArray
	// KindFloatArray is an array of 64-bit floats.
	KindFloatArray
	// KindStringArray is an array of strings.
	KindStringArray
)

var kindNames = [...]string{"null", "int", "float", "bool", "string", "int[]", "float[]", "string[]"}

// String returns the kind name.
func (k ValueKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Value is a dynamically typed property value. The zero Value is null.
// Values are immutable once constructed; arrays must not be mutated by the
// caller after being passed in.
//
// Two words, pinned by TestValueSize, because a Go map allocates slots eight
// at a time and every entity that carries a property pays eight of these per
// resident copy. num holds an int, a float's bits or a bool; b names the
// kind: nil for null, a package-level sentinel for the other scalars (no
// allocation), and one immutable box for a string or an array. The leading
// zero-length func array makes == a compile error, since it would compare
// box pointers rather than contents; use Equal.
type Value struct {
	_   [0]func()
	num uint64
	b   *box
}

// box holds a Value's kind and, for a string or an array, its payload: 32
// bytes. Scalar kinds share the sentinels below.
type box struct {
	kind ValueKind
	str  string
	arr  *arrays
}

// arrays holds the payload of an array-kind Value; at most one field is set.
type arrays struct {
	ia []int64
	fa []float64
	sa []string
}

var (
	intBox   = &box{kind: KindInt}
	floatBox = &box{kind: KindFloat}
	boolBox  = &box{kind: KindBool}
	noBox    box // what a null Value's accessors read
)

// NullValue returns the null value.
func NullValue() Value { return Value{} }

// IntValue returns an integer value.
func IntValue(v int64) Value { return Value{num: uint64(v), b: intBox} }

// FloatValue returns a float value.
func FloatValue(v float64) Value { return Value{num: math.Float64bits(v), b: floatBox} }

// BoolValue returns a boolean value.
func BoolValue(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{num: n, b: boolBox}
}

// StringValue returns a string value.
func StringValue(v string) Value { return Value{b: &box{kind: KindString, str: v}} }

// IntArrayValue returns an integer-array value. The slice is retained.
func IntArrayValue(v []int64) Value { return arrayValue(KindIntArray, arrays{ia: v}) }

// FloatArrayValue returns a float-array value. The slice is retained.
func FloatArrayValue(v []float64) Value { return arrayValue(KindFloatArray, arrays{fa: v}) }

// StringArrayValue returns a string-array value. The slice is retained.
func StringArrayValue(v []string) Value { return arrayValue(KindStringArray, arrays{sa: v}) }

// arrayBox is an array Value's one allocation: its box and the payload the
// box points at.
type arrayBox struct {
	box
	a arrays
}

func arrayValue(k ValueKind, a arrays) Value {
	ab := &arrayBox{box: box{kind: k}, a: a}
	ab.arr = &ab.a
	return Value{b: &ab.box}
}

// box returns the value's box, an empty one for null.
func (v Value) box() *box {
	if v.b == nil {
		return &noBox
	}
	return v.b
}

// Kind reports the value's type.
func (v Value) Kind() ValueKind { return v.box().kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.b == nil }

// Int returns the integer payload, truncating floats toward zero (the
// mirror of Float's int conversion); every other kind yields zero.
func (v Value) Int() int64 {
	switch v.b {
	case intBox:
		return int64(v.num)
	case floatBox:
		return int64(math.Float64frombits(v.num))
	}
	return 0
}

// Float returns the float payload, converting ints; every other kind yields
// zero.
func (v Value) Float() float64 {
	switch v.b {
	case intBox:
		return float64(int64(v.num))
	case floatBox:
		return math.Float64frombits(v.num)
	}
	return 0
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.num != 0 }

// Str returns the string payload.
func (v Value) Str() string { return v.box().str }

// payload returns the array payloads, all nil for a kind that has none.
func (v Value) payload() arrays {
	if a := v.box().arr; a != nil {
		return *a
	}
	return arrays{}
}

// IntArray returns the integer-array payload. Callers must not mutate it.
func (v Value) IntArray() []int64 { return v.payload().ia }

// FloatArray returns the float-array payload. Callers must not mutate it.
func (v Value) FloatArray() []float64 { return v.payload().fa }

// StringArray returns the string-array payload. Callers must not mutate it.
func (v Value) StringArray() []string { return v.payload().sa }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	a, b := v.box(), o.box()
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindString:
		return a.str == b.str
	case KindIntArray, KindFloatArray, KindStringArray:
		x, y := a.arr, b.arr
		return slices.Equal(x.ia, y.ia) && slices.Equal(x.fa, y.fa) && slices.Equal(x.sa, y.sa)
	}
	return v.num == o.num
}

// Compare orders two comparable values (ints, floats, strings, bools).
// Mixed int/float comparisons are performed as floats. It returns -1, 0, or
// +1; incomparable kinds compare by kind id so sorting is total.
func (v Value) Compare(o Value) int {
	vk, wk := v.Kind(), o.Kind()
	numeric := func(k ValueKind) bool { return k == KindInt || k == KindFloat }
	if numeric(vk) && numeric(wk) {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if vk != wk {
		if vk < wk {
			return -1
		}
		return 1
	}
	switch vk {
	case KindString:
		return strings.Compare(v.Str(), o.Str())
	case KindBool:
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		}
	}
	return 0
}

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.num != 0)
	case KindString:
		return strconv.Quote(v.Str())
	case KindIntArray:
		return fmt.Sprintf("%v", v.IntArray())
	case KindFloatArray:
		return fmt.Sprintf("%v", v.FloatArray())
	case KindStringArray:
		return fmt.Sprintf("%v", v.StringArray())
	}
	return "?"
}

// ApproxBytes estimates the in-memory footprint of the value payload. Used
// by the Table 3 memory accounting.
func (v Value) ApproxBytes() int {
	switch v.Kind() {
	case KindString:
		return 16 + len(v.Str())
	case KindIntArray, KindFloatArray:
		return 24 + 8*(len(v.IntArray())+len(v.FloatArray()))
	case KindStringArray:
		n := 24
		for _, s := range v.StringArray() {
			n += 16 + len(s)
		}
		return n
	default:
		return 8
	}
}

// Properties is the key-value property set attached to a node or
// relationship.
type Properties map[string]Value

// Clone returns a shallow copy of the property map (values are immutable, so
// a shallow copy is an independent snapshot).
func (p Properties) Clone() Properties { return maps.Clone(p) }

// Equal reports whether two property maps hold the same entries.
func (p Properties) Equal(o Properties) bool { return maps.EqualFunc(p, o, Value.Equal) }
