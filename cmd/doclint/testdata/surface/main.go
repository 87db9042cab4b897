// Command surface is the surface lint's fixture module: it uses Used.
package main

import "example.com/surface/internal/p"

func main() { p.Used() }
