// Package model defines the labeled property graph (LPG) and temporal LPG
// data model from Section 3 of the Aion paper: nodes, relationships,
// property values, validity intervals, and the graph-update stream that a
// temporal store ingests.
package model

import (
	"fmt"
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

// String returns the kind name.
func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindIntArray:
		return "int[]"
	case KindFloatArray:
		return "float[]"
	case KindStringArray:
		return "string[]"
	}
	return "unknown"
}

// Value is a dynamically typed property value. The zero Value is null.
// Values are immutable once constructed; arrays must not be mutated by the
// caller after being passed in.
//
// Scalars and strings are inline and the array payloads sit behind one
// pointer, nil for every other kind: 40 bytes, pinned by TestValueSize,
// because a Go map allocates slots eight at a time and every entity that
// carries a property pays eight of these per resident copy.
type Value struct {
	kind ValueKind
	num  uint64 // int, float bits, or bool
	str  string
	arr  *arrays
}

// arrays holds the payload of an array-kind Value; at most one field is set.
type arrays struct {
	ia []int64
	fa []float64
	sa []string
}

// NullValue returns the null value.
func NullValue() Value { return Value{} }

// IntValue returns an integer value.
func IntValue(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// FloatValue returns a float value.
func FloatValue(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// BoolValue returns a boolean value.
func BoolValue(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// StringValue returns a string value.
func StringValue(v string) Value { return Value{kind: KindString, str: v} }

// IntArrayValue returns an integer-array value. The slice is retained.
func IntArrayValue(v []int64) Value { return Value{kind: KindIntArray, arr: &arrays{ia: v}} }

// FloatArrayValue returns a float-array value. The slice is retained.
func FloatArrayValue(v []float64) Value {
	return Value{kind: KindFloatArray, arr: &arrays{fa: v}}
}

// StringArrayValue returns a string-array value. The slice is retained.
func StringArrayValue(v []string) Value {
	return Value{kind: KindStringArray, arr: &arrays{sa: v}}
}

// Kind reports the value's type.
func (v Value) Kind() ValueKind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload, truncating floats toward zero (the
// mirror of Float's int conversion); every other kind yields zero.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return int64(v.num)
	case KindFloat:
		return int64(math.Float64frombits(v.num))
	}
	return 0
}

// Float returns the float payload, converting ints for convenience.
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(int64(v.num))
	}
	return math.Float64frombits(v.num)
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.num != 0 }

// Str returns the string payload.
func (v Value) Str() string { return v.str }

// payload returns the array payloads, all nil for a kind that has none.
func (v Value) payload() arrays {
	if v.arr == nil {
		return arrays{}
	}
	return *v.arr
}

// IntArray returns the integer-array payload. Callers must not mutate it.
func (v Value) IntArray() []int64 { return v.payload().ia }

// FloatArray returns the float-array payload. Callers must not mutate it.
func (v Value) FloatArray() []float64 { return v.payload().fa }

// StringArray returns the string-array payload. Callers must not mutate it.
func (v Value) StringArray() []string { return v.payload().sa }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt, KindFloat, KindBool:
		return v.num == o.num
	case KindString:
		return v.str == o.str
	case KindIntArray:
		return slices.Equal(v.IntArray(), o.IntArray())
	case KindFloatArray:
		return slices.Equal(v.FloatArray(), o.FloatArray())
	case KindStringArray:
		return slices.Equal(v.StringArray(), o.StringArray())
	}
	return false
}

// Compare orders two comparable values (ints, floats, strings, bools).
// Mixed int/float comparisons are performed as floats. It returns -1, 0, or
// +1; incomparable kinds compare by kind id so sorting is total.
func (v Value) Compare(o Value) int {
	numeric := func(k ValueKind) bool { return k == KindInt || k == KindFloat }
	if numeric(v.kind) && numeric(o.kind) {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.str, o.str)
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
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.num != 0)
	case KindString:
		return strconv.Quote(v.str)
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
	switch v.kind {
	case KindString:
		return 16 + len(v.str)
	case KindIntArray:
		return 24 + 8*len(v.IntArray())
	case KindFloatArray:
		return 24 + 8*len(v.FloatArray())
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
func (p Properties) Clone() Properties {
	if p == nil {
		return nil
	}
	c := make(Properties, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Equal reports whether two property maps hold the same entries.
func (p Properties) Equal(o Properties) bool {
	if len(p) != len(o) {
		return false
	}
	for k, v := range p {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}
