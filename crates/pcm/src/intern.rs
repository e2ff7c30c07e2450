//! Sharing immutable values between equal configurations.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, LazyLock, Mutex, Weak};

/// Values by the key they were computed from, shared while anyone holds
/// them: a `static` table behind [`crate::EnduranceMap::generate`] and
/// `twl_faults::provision`, whose draws are pure functions of a few
/// config fields and are repeated by every cell of a matrix.
///
/// Entries are `Weak`, so the table never keeps a value past its last
/// holder; entries whose values have died are dropped on the next
/// insert. Keep a value's bulk in its own allocation (a `Vec` inside
/// `T`), so a dead entry pins only the small `Arc` header.
#[derive(Debug)]
pub struct InternTable<K, T> {
    live: LazyLock<Mutex<HashMap<K, Weak<T>>>>,
}

impl<K: Eq + Hash, T> InternTable<K, T> {
    /// An empty table, for a `static`.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            live: LazyLock::new(Mutex::default),
        }
    }

    /// The live value for `key`, or else the one `make` computes, which
    /// the table then records. No lock is held while `make` runs, so two
    /// threads that miss at the same moment both compute; the second to
    /// finish adopts the first's value. A value `make` refuses is not
    /// recorded.
    ///
    /// # Errors
    ///
    /// The error `make` returns.
    pub fn get_or_try_make<E>(
        &self,
        key: K,
        make: impl FnOnce() -> Result<Arc<T>, E>,
    ) -> Result<Arc<T>, E> {
        if let Some(value) = self.lock().get(&key).and_then(Weak::upgrade) {
            return Ok(value);
        }
        let made = make()?;
        let mut live = self.lock();
        if let Some(value) = live.get(&key).and_then(Weak::upgrade) {
            return Ok(value);
        }
        live.retain(|_, value| value.strong_count() > 0);
        live.insert(key, Arc::downgrade(&made));
        Ok(made)
    }

    /// Whether the table holds an entry for `key`, live or dead.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.lock().contains_key(key)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, Weak<T>>> {
        self.live.lock().expect("intern table lock poisoned")
    }
}

impl<K: Eq + Hash, T> Default for InternTable<K, T> {
    fn default() -> Self {
        Self::new()
    }
}
