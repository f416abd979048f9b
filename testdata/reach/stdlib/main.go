// Package main is a fixture: the program never calls String, Write or Less
// itself; fmt, io and sort call them.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

type celsius float64

func (c celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

type upper struct{ w io.Writer }

func (u upper) Write(p []byte) (int, error) { return u.w.Write(p) }

type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func main() {
	words := byLen{"ccc", "a", "bb"}
	sort.Sort(words)
	fmt.Fprintln(upper{os.Stdout}, celsius(21.5), words)
}
