//! Page store substrate: page format, slotted records, space map,
//! storage backends, database files and the buffer pool.
//!
//! This crate implements the storage-manager assumptions of paper §2.1:
//!
//! * every database page carries a header with a **PSN** (page sequence
//!   number) that is incremented on every update;
//! * the PSN of a freshly allocated page is initialized from the space
//!   allocation map, following ARIES/CSA (reference \[15\] in the paper),
//!   so a reallocated page never reuses PSN values — log records written
//!   for the page's previous life can never be mistaken for records of
//!   its current life;
//! * the buffer manager follows **steal** (dirty pages of uncommitted
//!   transactions may be evicted) and **no-force** (commit does not
//!   write pages) policies. The pool itself performs no I/O: eviction
//!   hands the victim back to the node, which either writes it in place
//!   (locally owned pages) or ships it to the owner node — exactly the
//!   two destinations §2.1 describes.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod db;
pub mod page;
pub mod slotted;
pub mod spacemap;
pub mod storage;

pub use buffer::{BufferPool, EvictedPage};
pub use db::Database;
pub use page::{Page, PageKind, PAGE_HEADER_LEN};
pub use slotted::SlottedPage;
pub use spacemap::SpaceMap;
pub use storage::{FileStorage, MemStorage, Storage};
