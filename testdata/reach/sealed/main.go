// Package main is a fixture: expr is sealed by its unexported marker method,
// which no code calls.
package main

type expr interface{ exprNode() }

type lit struct{ v int }

func (lit) exprNode() {}

func main() {
	var e expr = lit{1}
	_ = e
}
