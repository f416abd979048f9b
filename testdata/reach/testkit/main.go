// Package main is a fixture: a binary that imports test support.
package main

import (
	"time"

	"aion/internal/testkit/clocktest"
)

func main() { println(clocktest.NewFake(time.Unix(0, 0)).Now().Unix()) }
