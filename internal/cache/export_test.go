package cache

import "fmt"

// CheckNoDuplicates verifies no physical line appears twice.
func (c *Cache) CheckNoDuplicates() error {
	seen := make(map[uint64]bool)
	for i, l := range c.lines {
		if l&tagValid == 0 {
			continue
		}
		tag := l &^ (tagValid | tagDirty)
		if seen[tag] {
			return fmt.Errorf("cache %s: tag %#x duplicated (set %d)", c.cfg.Name, tag, uint64(i)/c.ways)
		}
		seen[tag] = true
	}
	return nil
}

// LineCount returns the number of valid lines.
func (c *Cache) LineCount() int {
	n := 0
	for _, l := range c.lines {
		if l&tagValid != 0 {
			n++
		}
	}
	return n
}
