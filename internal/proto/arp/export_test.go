package arp

// EntryKmem is one learned address's domain-heap charge.
const EntryKmem = entryKmem
