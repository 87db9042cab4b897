package trace

// FlowMiss counts one send that had to compute its delivery skeleton
// from the routing substrate: CounterBatch.FlowMiss on the shared table,
// so Counters serves as the batch's reference in tests.
func (c *Counters) FlowMiss() { c.add(cFlowMisses, 1) }
