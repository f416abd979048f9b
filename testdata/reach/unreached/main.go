// Package main is a fixture: dead is declared but nothing reaches it.
package main

func main() { live() }

func live() {}

func dead() {}
