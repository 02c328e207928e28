//! Intrusive page lists.
//!
//! Both policies keep pages on doubly-linked lists (active/inactive for
//! Clock; one list per generation×tier for MG-LRU). Nodes live in one flat
//! [`Links`] arena indexed by [`PageKey`], so a page can be moved between
//! lists in O(1) with no allocation — the property that makes MG-LRU's
//! "increase the generation count to 2^14" experiment (Gen-14) free, as
//! the paper notes.

use pagesim_mem::PageKey;

const NIL: u32 = u32::MAX;

/// Link cell for one page. Keep one `Vec<Links>` per policy, indexed by
/// [`PageKey`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Links {
    prev: u32,
    next: u32,
    /// Detached marker (a page is on at most one list).
    attached: bool,
}

impl Default for Links {
    fn default() -> Self {
        Links {
            prev: NIL,
            next: NIL,
            attached: false,
        }
    }
}

impl Links {
    /// Whether this page is currently on some list.
    pub fn attached(&self) -> bool {
        self.attached
    }
}

/// A doubly-linked list of pages over a shared [`Links`] arena.
///
/// Head = most recently promoted ("youngest end"); tail = scan/evict end.
///
/// ```rust
/// use pagesim_policy::{Links, PageList};
/// let mut nodes = vec![Links::default(); 8];
/// let mut l = PageList::new();
/// l.push_front(&mut nodes, 3);
/// l.push_front(&mut nodes, 5);
/// assert_eq!(l.back(), Some(3));
/// assert_eq!(l.pop_back(&mut nodes), Some(3));
/// assert_eq!(l.len(), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageList {
    head: u32,
    tail: u32,
    len: u32,
}

impl PageList {
    /// An empty list.
    pub const fn new() -> PageList {
        PageList {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of pages on the list.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page at the scan/evict end.
    pub fn back(&self) -> Option<PageKey> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// The page at the young end.
    pub fn front(&self) -> Option<PageKey> {
        (self.head != NIL).then_some(self.head)
    }

    /// Pushes `key` at the young end.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `key` is already on a list.
    pub fn push_front(&mut self, nodes: &mut [Links], key: PageKey) {
        let k = key;
        debug_assert!(!nodes[k as usize].attached, "page {k} already listed");
        nodes[k as usize] = Links {
            prev: NIL,
            next: self.head,
            attached: true,
        };
        if self.head != NIL {
            nodes[self.head as usize].prev = k;
        } else {
            self.tail = k;
        }
        self.head = k;
        self.len += 1;
    }

    /// Pushes `key` at the scan/evict end (used when demoting pages).
    pub fn push_back(&mut self, nodes: &mut [Links], key: PageKey) {
        let k = key;
        debug_assert!(!nodes[k as usize].attached, "page {k} already listed");
        nodes[k as usize] = Links {
            prev: self.tail,
            next: NIL,
            attached: true,
        };
        if self.tail != NIL {
            nodes[self.tail as usize].next = k;
        } else {
            self.head = k;
        }
        self.tail = k;
        self.len += 1;
    }

    /// Removes and returns the page at the scan/evict end.
    pub fn pop_back(&mut self, nodes: &mut [Links]) -> Option<PageKey> {
        let k = self.back()?;
        self.remove(nodes, k);
        Some(k)
    }

    /// Unlinks `key` from this list.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `key` is not attached.
    pub fn remove(&mut self, nodes: &mut [Links], key: PageKey) {
        let k = key as usize;
        debug_assert!(nodes[k].attached, "removing detached page {key}");
        let Links { prev, next, .. } = nodes[k];
        if prev != NIL {
            nodes[prev as usize].next = next;
        } else {
            debug_assert_eq!(self.head, key);
            self.head = next;
        }
        if next != NIL {
            nodes[next as usize].prev = prev;
        } else {
            debug_assert_eq!(self.tail, key);
            self.tail = prev;
        }
        nodes[k] = Links::default();
        self.len -= 1;
    }

    /// Iterates from tail (evict end) to head. For tests and debugging;
    /// scans in the policies walk manually so they can mutate.
    pub fn iter_from_back<'a>(&self, nodes: &'a [Links]) -> impl Iterator<Item = PageKey> + 'a {
        let mut cur = self.tail;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let k = cur;
            cur = nodes[cur as usize].prev;
            Some(k)
        })
    }
}

impl Default for PageList {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(n: usize) -> Vec<Links> {
        vec![Links::default(); n]
    }

    #[test]
    fn fifo_order_front_to_back() {
        let mut nodes = arena(10);
        let mut l = PageList::new();
        for k in [1u32, 2, 3] {
            l.push_front(&mut nodes, k);
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.pop_back(&mut nodes), Some(1));
        assert_eq!(l.pop_back(&mut nodes), Some(2));
        assert_eq!(l.pop_back(&mut nodes), Some(3));
        assert_eq!(l.pop_back(&mut nodes), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_from_middle() {
        let mut nodes = arena(10);
        let mut l = PageList::new();
        for k in [1u32, 2, 3, 4] {
            l.push_front(&mut nodes, k);
        }
        l.remove(&mut nodes, 3);
        let order: Vec<_> = l.iter_from_back(&nodes).collect();
        assert_eq!(order, vec![1, 2, 4]);
        assert!(!nodes[3].attached());
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut nodes = arena(10);
        let mut l = PageList::new();
        for k in [1u32, 2, 3] {
            l.push_front(&mut nodes, k);
        }
        l.remove(&mut nodes, 3); // head
        assert_eq!(l.front(), Some(2));
        l.remove(&mut nodes, 1); // tail
        assert_eq!(l.back(), Some(2));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn push_back_demotes() {
        let mut nodes = arena(10);
        let mut l = PageList::new();
        l.push_front(&mut nodes, 1);
        l.push_back(&mut nodes, 2);
        assert_eq!(l.back(), Some(2));
        assert_eq!(l.front(), Some(1));
    }

    #[test]
    fn move_between_lists() {
        let mut nodes = arena(10);
        let mut a = PageList::new();
        let mut b = PageList::new();
        a.push_front(&mut nodes, 5);
        a.remove(&mut nodes, 5);
        b.push_front(&mut nodes, 5);
        assert!(a.is_empty());
        assert_eq!(b.back(), Some(5));
    }

    #[test]
    fn singleton_list_invariants() {
        let mut nodes = arena(4);
        let mut l = PageList::new();
        l.push_front(&mut nodes, 0);
        assert_eq!(l.front(), l.back());
        l.pop_back(&mut nodes);
        assert_eq!(l.front(), None);
        assert_eq!(l.back(), None);
    }
}
