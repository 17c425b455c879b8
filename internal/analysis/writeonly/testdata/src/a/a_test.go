package a

func readProbe(p *probe) int { return p.onlyTests }
