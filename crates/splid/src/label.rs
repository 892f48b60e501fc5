//! The [`SplId`] label type: structure, level arithmetic, ancestor
//! derivation, and document-order comparison.

use std::fmt;

/// Division value reserved for attribute roots and string nodes.
///
/// The paper (§3.2): "Division value 1 at levels > 1 is used to label
/// attribute nodes (where order does not matter)." In the taDOM storage
/// model the same convention labels the string child of an attribute or
/// text node.
pub const ATTRIBUTE_DIVISION: u32 = 1;

/// Errors constructing a [`SplId`] from raw divisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplIdError {
    /// A label must contain at least one division.
    Empty,
    /// The first division of every label must be the root division `1`.
    BadRoot(u32),
    /// The last division must be odd (even divisions are connectors that
    /// never terminate a label).
    TrailingEven(u32),
    /// Division value `0` never occurs in a valid label.
    ZeroDivision,
}

impl fmt::Display for SplIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplIdError::Empty => write!(f, "label must have at least one division"),
            SplIdError::BadRoot(d) => write!(f, "label must start with root division 1, got {d}"),
            SplIdError::TrailingEven(d) => write!(f, "label must end in an odd division, got {d}"),
            SplIdError::ZeroDivision => write!(f, "division value 0 is invalid"),
        }
    }
}

impl std::error::Error for SplIdError {}

/// Structural relationship of one node's label to another's, decidable
/// from the labels alone (no document access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relationship {
    /// Identical labels.
    SelfNode,
    /// `a` is a proper ancestor of `b`.
    Ancestor,
    /// `a` is a proper descendant of `b`.
    Descendant,
    /// `a` precedes `b` in document order and is not an ancestor.
    Preceding,
    /// `a` follows `b` in document order and is not a descendant.
    Following,
}

/// A stable path labeling identifier.
///
/// Invariants (enforced by every constructor):
/// * at least one division; the first is `1` (the document root),
/// * no division is `0`,
/// * the final division is odd.
///
/// `Ord` is document order: ancestors sort before their descendants, and
/// siblings sort left to right. `Eq`, `Ord` and `Hash` are those of the
/// division slice.
///
/// Up to [`INLINE`] divisions live in the value itself — deriving a
/// parent, an ancestor or a lock name from a label copies 64 bytes and
/// never allocates; only longer labels spill to the heap.
#[derive(Clone)]
pub struct SplId {
    divs: Divs,
}

/// Divisions held inline: with the length byte and the heap variant's
/// tag this is the largest count that keeps an `SplId` in 64 bytes. A
/// freshly generated bib document's longest label has 11.
pub(crate) const INLINE: usize = 14;

#[derive(Clone)]
enum Divs {
    Inline { len: u8, buf: [u32; INLINE] },
    Heap(Box<[u32]>),
}

impl SplId {
    /// The root label `1`.
    pub fn root() -> Self {
        SplId::from_slice_unchecked(&[1])
    }

    /// Builds a label from raw divisions, validating the invariants.
    pub fn from_divisions(divs: &[u32]) -> Result<Self, SplIdError> {
        validate(divs)?;
        Ok(SplId::from_slice_unchecked(divs))
    }

    /// [`SplId::from_divisions`] of `buf[..len]` for a decoder that filled
    /// the inline buffer itself: validated, not copied again.
    pub(crate) fn from_inline(buf: [u32; INLINE], len: usize) -> Result<Self, SplIdError> {
        validate(&buf[..len])?;
        let len = len as u8;
        Ok(SplId { divs: Divs::Inline { len, buf } })
    }

    /// Internal constructor for callers that maintain the invariants
    /// themselves (prefixes of a valid label, the allocator).
    fn from_slice_unchecked(divs: &[u32]) -> Self {
        debug_assert!(!divs.is_empty());
        debug_assert_eq!(divs[0], 1);
        debug_assert!(divs.iter().all(|&d| d != 0));
        debug_assert_eq!(divs.last().unwrap() % 2, 1);
        let divs = if divs.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..divs.len()].copy_from_slice(divs);
            Divs::Inline {
                len: divs.len() as u8,
                buf,
            }
        } else {
            Divs::Heap(divs.into())
        };
        SplId { divs }
    }

    /// The raw division sequence.
    #[inline]
    pub fn divisions(&self) -> &[u32] {
        match &self.divs {
            Divs::Inline { len, buf } => &buf[..*len as usize],
            Divs::Heap(divs) => divs,
        }
    }

    /// Parses the dotted decimal notation used throughout the paper,
    /// e.g. `"1.3.4.3"`.
    pub fn parse(s: &str) -> Result<Self, SplIdError> {
        let divs: Vec<u32> = s
            .split('.')
            .map(|p| p.parse::<u32>().map_err(|_| SplIdError::ZeroDivision))
            .collect::<Result<_, _>>()?;
        Self::from_divisions(&divs)
    }

    /// Node level: the number of odd divisions minus one. The root `1` is
    /// level 0; `1.3.4.3` is level 2 (odd divisions `1`, `3`, `3`).
    pub fn level(&self) -> usize {
        self.divisions().iter().filter(|&&d| d % 2 == 1).count() - 1
    }

    /// `true` if this is the document root label.
    pub fn is_root(&self) -> bool {
        self.len() == 1
    }

    /// The parent label: strip the final (odd) division and any even
    /// overflow connectors preceding it. `1.3.4.3 → 1.3`; the root has no
    /// parent. Computed purely from the label — the property the lock
    /// manager depends on.
    pub fn parent(&self) -> Option<SplId> {
        self.ancestors().next()
    }

    /// Iterator over proper ancestors, nearest (parent) first, ending at
    /// the root; `.rev()` walks them root first.
    pub fn ancestors(&self) -> Ancestors<'_> {
        let divs = self.divisions();
        Ancestors {
            divs,
            start: 0,
            end: divs.len(),
        }
    }

    /// The ancestor at a given level (`0` = root). Returns `None` when
    /// `level >= self.level()` does not name a *proper* ancestor, except
    /// that the node's own level returns the node itself.
    pub fn ancestor_at_level(&self, level: usize) -> Option<SplId> {
        // Keep divisions up to the `level + 1`-th odd one: the label's own
        // last division on its own level, none beyond it.
        let divs = self.divisions();
        let (last, _) = divs
            .iter()
            .enumerate()
            .filter(|(_, d)| *d % 2 == 1)
            .nth(level)?;
        Some(SplId::from_slice_unchecked(&divs[..=last]))
    }

    /// `true` if `self` is a proper ancestor of `other` (division-wise
    /// prefix; never true for equal labels).
    pub fn is_ancestor_of(&self, other: &SplId) -> bool {
        let (a, b) = (self.divisions(), other.divisions());
        a.len() < b.len() && b[..a.len()] == *a
    }

    /// `true` if `self` is the parent of `other`.
    pub fn is_parent_of(&self, other: &SplId) -> bool {
        other.parent().as_ref() == Some(self)
    }

    /// `true` if the two labels share the same parent.
    pub fn is_sibling_of(&self, other: &SplId) -> bool {
        self != other && self.parent() == other.parent()
    }

    /// `true` if the label lies inside an attribute-root or string-node
    /// region (contains the reserved division `1` beyond the root).
    pub fn is_attribute_related(&self) -> bool {
        self.divisions()[1..].contains(&ATTRIBUTE_DIVISION)
    }

    /// Child label for a node's attribute root / string child (appends the
    /// reserved division `1`).
    pub fn reserved_child(&self) -> SplId {
        self.child_with_tail(&[ATTRIBUTE_DIVISION])
    }

    /// Appends a tail of shape `even* odd` (validated by the caller); used
    /// by the allocator.
    pub(crate) fn child_with_tail(&self, tail: &[u32]) -> SplId {
        let own = self.divisions();
        let len = own.len() + tail.len();
        if len <= INLINE {
            let mut buf = [0; INLINE];
            buf[..own.len()].copy_from_slice(own);
            buf[own.len()..len].copy_from_slice(tail);
            SplId::from_slice_unchecked(&buf[..len])
        } else {
            SplId::from_slice_unchecked(&[own, tail].concat())
        }
    }

    /// Classifies `self` relative to `other`.
    pub fn relationship(&self, other: &SplId) -> Relationship {
        use std::cmp::Ordering::*;
        if self == other {
            Relationship::SelfNode
        } else if self.is_ancestor_of(other) {
            Relationship::Ancestor
        } else if other.is_ancestor_of(self) {
            Relationship::Descendant
        } else {
            match self.cmp(other) {
                Less => Relationship::Preceding,
                Greater => Relationship::Following,
                Equal => unreachable!("equal labels handled above"),
            }
        }
    }

    /// The deepest common ancestor of two labels (always exists — at worst
    /// the root).
    pub fn common_ancestor(&self, other: &SplId) -> SplId {
        let (a, b) = (self.divisions(), other.divisions());
        let mut common = a.iter().zip(b).take_while(|(x, y)| x == y).count();
        // A full-prefix match means one label IS an ancestor of (or equal
        // to) the other; otherwise strip trailing even connectors so the
        // prefix names an actual node.
        if common < a.len() && common < b.len() {
            while common > 1 && a[common - 1].is_multiple_of(2) {
                common -= 1;
            }
        }
        SplId::from_slice_unchecked(&a[..common])
    }

    /// Number of divisions (encoded length is roughly proportional).
    #[inline]
    pub fn len(&self) -> usize {
        self.divisions().len()
    }

    /// Labels are never empty; provided for clippy symmetry with `len`.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The label invariants, on raw divisions.
fn validate(divs: &[u32]) -> Result<(), SplIdError> {
    let (&first, _) = divs.split_first().ok_or(SplIdError::Empty)?;
    if first != 1 {
        return Err(SplIdError::BadRoot(first));
    }
    if divs.contains(&0) {
        return Err(SplIdError::ZeroDivision);
    }
    let last = *divs.last().expect("non-empty");
    if last.is_multiple_of(2) {
        return Err(SplIdError::TrailingEven(last));
    }
    Ok(())
}

impl PartialEq for SplId {
    #[inline]
    fn eq(&self, other: &SplId) -> bool {
        self.divisions() == other.divisions()
    }
}

impl Eq for SplId {}

impl PartialOrd for SplId {
    #[inline]
    fn partial_cmp(&self, other: &SplId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SplId {
    #[inline]
    fn cmp(&self, other: &SplId) -> std::cmp::Ordering {
        self.divisions().cmp(other.divisions())
    }
}

impl std::hash::Hash for SplId {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.divisions().hash(state);
    }
}

impl fmt::Display for SplId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.divisions().iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// `Debug` prints the dotted form — labels appear constantly in lock-trace
/// output and the dotted form is what the paper uses.
impl fmt::Debug for SplId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Iterator over proper ancestors, nearest first from the front and root
/// first from the back. See [`SplId::ancestors`].
pub struct Ancestors<'a> {
    divs: &'a [u32],
    /// Length of the last label yielded from the back (0 before the
    /// root); the ancestors still to come are longer.
    start: usize,
    /// Length of the last label yielded from the front (the label's own
    /// before the parent); the ancestors still to come are shorter.
    end: usize,
}

impl Iterator for Ancestors<'_> {
    type Item = SplId;

    fn next(&mut self) -> Option<SplId> {
        // Drop the trailing odd division, then any even connectors.
        let mut end = self.end.saturating_sub(1);
        while end > 1 && self.divs[end - 1].is_multiple_of(2) {
            end -= 1;
        }
        if end <= self.start {
            return None;
        }
        self.end = end;
        Some(SplId::from_slice_unchecked(&self.divs[..end]))
    }
}

impl DoubleEndedIterator for Ancestors<'_> {
    fn next_back(&mut self) -> Option<SplId> {
        // Take even connectors up to and including the next odd division.
        let odd = self.divs[self.start..].iter().position(|d| d % 2 == 1)?;
        let start = self.start + odd + 1;
        if start >= self.end {
            return None;
        }
        self.start = start;
        Some(SplId::from_slice_unchecked(&self.divs[..start]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> SplId {
        SplId::parse(s).unwrap()
    }

    #[test]
    fn root_properties() {
        let r = SplId::root();
        assert!(r.is_root());
        assert_eq!(r.level(), 0);
        assert_eq!(r.parent(), None);
        assert_eq!(r.to_string(), "1");
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["1", "1.3", "1.3.4.3", "1.5.3.3.11.3.1"] {
            assert_eq!(id(s).to_string(), s);
        }
    }

    #[test]
    fn invalid_labels_rejected() {
        assert_eq!(SplId::from_divisions(&[]), Err(SplIdError::Empty));
        assert_eq!(SplId::from_divisions(&[3]), Err(SplIdError::BadRoot(3)));
        assert_eq!(
            SplId::from_divisions(&[1, 4]),
            Err(SplIdError::TrailingEven(4))
        );
        assert_eq!(
            SplId::from_divisions(&[1, 0, 3]),
            Err(SplIdError::ZeroDivision)
        );
    }

    #[test]
    fn level_counts_odd_divisions_only() {
        // Paper example: d3 = 1.3.4.3 sits on level 3 counting from 1, i.e.
        // level 2 with the root at level 0 — same as d1 = 1.3.3.
        assert_eq!(id("1.3.3").level(), 2);
        assert_eq!(id("1.3.4.3").level(), 2);
        assert_eq!(id("1.3.4.4.5").level(), 2);
        assert_eq!(id("1.3").level(), 1);
    }

    #[test]
    fn parent_skips_even_connectors() {
        assert_eq!(id("1.3.3").parent().unwrap(), id("1.3"));
        assert_eq!(id("1.3.4.3").parent().unwrap(), id("1.3"));
        assert_eq!(id("1.3.4.4.5").parent().unwrap(), id("1.3"));
        assert_eq!(id("1.3").parent().unwrap(), SplId::root());
    }

    #[test]
    fn ancestors_walk_to_root() {
        let n = id("1.5.3.3.11.3.1");
        let path: Vec<String> = n.ancestors().map(|a| a.to_string()).collect();
        assert_eq!(path, ["1.5.3.3.11.3", "1.5.3.3.11", "1.5.3.3", "1.5.3", "1.5", "1"]);
        // With an overflow connector in the middle:
        let n = id("1.3.4.3.5");
        let path: Vec<String> = n.ancestors().map(|a| a.to_string()).collect();
        assert_eq!(path, ["1.3.4.3", "1.3", "1"]);
    }

    #[test]
    fn ancestor_at_level_matches_ancestors() {
        let n = id("1.5.3.3.11.3.1");
        assert_eq!(n.level(), 6);
        assert_eq!(n.ancestor_at_level(0).unwrap(), SplId::root());
        assert_eq!(n.ancestor_at_level(2).unwrap(), id("1.5.3"));
        assert_eq!(n.ancestor_at_level(6).unwrap(), n);
        assert_eq!(n.ancestor_at_level(7), None);
        // Overflow connectors do not create levels:
        let m = id("1.3.4.3");
        assert_eq!(m.ancestor_at_level(1).unwrap(), id("1.3"));
        assert_eq!(m.ancestor_at_level(2).unwrap(), m);
    }

    #[test]
    fn document_order_from_paper_example() {
        // d1 = 1.3.3 < d3 = 1.3.4.3 < d2 = 1.3.5 (paper §3.2).
        let d1 = id("1.3.3");
        let d2 = id("1.3.5");
        let d3 = id("1.3.4.3");
        assert!(d1 < d3 && d3 < d2);
        // Ancestors precede descendants.
        assert!(id("1.3") < d1);
    }

    #[test]
    fn relationship_classification() {
        let a = id("1.3");
        let b = id("1.3.4.3");
        assert_eq!(a.relationship(&b), Relationship::Ancestor);
        assert_eq!(b.relationship(&a), Relationship::Descendant);
        assert_eq!(a.relationship(&a), Relationship::SelfNode);
        assert_eq!(id("1.3.3").relationship(&id("1.3.5")), Relationship::Preceding);
        assert_eq!(id("1.3.5").relationship(&id("1.3.3")), Relationship::Following);
    }

    #[test]
    fn sibling_and_parent_predicates() {
        assert!(id("1.3").is_parent_of(&id("1.3.4.3")));
        assert!(!id("1.3").is_parent_of(&id("1.3.3.5")));
        assert!(id("1.3.3").is_sibling_of(&id("1.3.4.3")));
        assert!(!id("1.3.3").is_sibling_of(&id("1.3.3")));
    }

    #[test]
    fn attribute_labels() {
        let person = id("1.3.3");
        let aroot = person.reserved_child();
        assert_eq!(aroot, id("1.3.3.1"));
        assert!(aroot.is_attribute_related());
        assert!(!person.is_attribute_related());
        assert_eq!(aroot.level(), 3);
        assert_eq!(aroot.parent().unwrap(), person);
    }

    #[test]
    fn common_ancestor_basics() {
        assert_eq!(id("1.3.3").common_ancestor(&id("1.3.5")), id("1.3"));
        assert_eq!(id("1.3.3").common_ancestor(&id("1.5.3")), SplId::root());
        assert_eq!(id("1.3").common_ancestor(&id("1.3.4.3")), id("1.3"));
        assert_eq!(
            id("1.3.4.3").common_ancestor(&id("1.3.4.5")),
            id("1.3"),
            "shared even connector is not a node"
        );
    }
}
