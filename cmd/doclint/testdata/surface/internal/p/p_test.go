package p

import "testing"

func TestPlanted(t *testing.T) { Planted() }
