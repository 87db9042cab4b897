package packet

// FallbackMark extracts the OptFallback option if present: the marker
// value (FallbackMarkState or FallbackMarkRescue) and whether the packet
// carries the option at all.
func (h VNHeader) FallbackMark() (uint8, bool) {
	for _, o := range h.Options {
		if o.Type == OptFallback && len(o.Value) == 1 {
			return o.Value[0], true
		}
	}
	return 0, false
}
