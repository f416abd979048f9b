// Package main is a fixture: (*disk).Name is reached only through a call of
// the interface method namer.Name.
package main

type namer interface{ Name() string }

type disk struct{}

func (d *disk) Name() string { return "disk" }

func main() {
	var n namer = &disk{}
	println(n.Name())
}
