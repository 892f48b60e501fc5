//! Offline stand-in for `crossbeam`: `xtc-tamix` declares the dependency and uses none of it.
