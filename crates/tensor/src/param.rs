//! Named trainable-parameter registry.
//!
//! Modules (`Linear`, `GruCell`, …) allocate their weights here and keep only
//! the returned [`ParamId`]s. A forward pass *mounts* parameters onto an
//! evaluator: a [`crate::Tape`] copies them, and after `backward` the
//! optimiser harvests gradients by id; a [`crate::Eval`] reads them in
//! place. Keeping values outside the tape means a tape is cheap to build and
//! throw away every mini-batch while parameters persist.

use crate::matrix::Matrix;
use std::collections::HashMap;
use std::fmt;

/// Opaque handle to one trainable parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Why [`ParamStore::load_matching`] refused: a parameter both stores name
/// has different shapes in each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// The parameter's name.
    pub name: String,
    /// Its `(rows, cols)` in the receiving store.
    pub expected: (usize, usize),
    /// Its `(rows, cols)` in the source store.
    pub found: (usize, usize),
}

impl fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parameter {:?} is {}x{}, the model needs {}x{}",
            self.name, self.found.0, self.found.1, self.expected.0, self.expected.1
        )
    }
}

impl std::error::Error for ShapeMismatch {}

#[derive(Debug, Clone)]
struct ParamEntry {
    name: String,
    value: Matrix,
}

/// Registry of named trainable parameters.
///
/// [`ParamStore::ids`] walks the entries in registration order, the order
/// a saved model lists them in, so model files are byte-stable across
/// runs.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
    by_name: HashMap<String, ParamId>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter.
    ///
    /// # Panics
    /// Panics if `name` is already registered — parameter names double as
    /// keys in saved models and must be unique.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "ParamStore::register: duplicate parameter name {name:?}"
        );
        let id = ParamId(self.entries.len());
        self.by_name.insert(name.clone(), id);
        self.entries.push(ParamEntry { name, value });
        id
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// Mutable value (used by optimisers and loaders).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0].value
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Looks a parameter up by name.
    pub fn lookup(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Total scalar parameter count (the "number of parameters" of a model).
    pub fn scalar_count(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Copies values from `other` for every parameter whose name exists in
    /// both stores, returning how many were copied. This is the
    /// "initialise downstream model from pre-trained weights" primitive
    /// used by fine-tuning. Every shared name must have the same shape in
    /// both stores; otherwise nothing is copied and the first mismatch is
    /// returned.
    pub fn load_matching(&mut self, other: &ParamStore) -> Result<usize, ShapeMismatch> {
        let source = |entry: &ParamEntry| {
            let id = other.by_name.get(&entry.name)?;
            Some(&other.entries[id.0].value)
        };
        for entry in &self.entries {
            match source(entry) {
                Some(src) if src.shape() != entry.value.shape() => {
                    return Err(ShapeMismatch {
                        name: entry.name.clone(),
                        expected: entry.value.shape(),
                        found: src.shape(),
                    })
                }
                _ => {}
            }
        }
        let mut copied = 0;
        for entry in &mut self.entries {
            if let Some(src) = source(entry) {
                entry.value = src.clone();
                copied += 1;
            }
        }
        Ok(copied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::ones(2, 3));
        assert_eq!(store.lookup("w"), Some(id));
        assert_eq!(store.lookup("nope"), None);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.value(id).shape(), (2, 3));
        assert_eq!(store.len(), 1);
        assert_eq!(store.scalar_count(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut store = ParamStore::new();
        store.register("w", Matrix::ones(1, 1));
        store.register("w", Matrix::ones(1, 1));
    }

    #[test]
    fn load_matching_copies_by_name() {
        let mut pretrained = ParamStore::new();
        pretrained.register("enc.w", Matrix::full(1, 2, 7.0));
        pretrained.register("head.w", Matrix::full(1, 1, 9.0));

        let mut downstream = ParamStore::new();
        let w = downstream.register("enc.w", Matrix::zeros(1, 2));
        downstream.register("new_head.w", Matrix::zeros(1, 1));

        let copied = downstream.load_matching(&pretrained).unwrap();
        assert_eq!(copied, 1);
        assert_eq!(downstream.value(w), &Matrix::full(1, 2, 7.0));
    }

    #[test]
    fn load_matching_refuses_a_shape_mismatch_and_copies_nothing() {
        let mut pretrained = ParamStore::new();
        pretrained.register("a", Matrix::full(1, 2, 7.0));
        pretrained.register("b", Matrix::full(3, 2, 9.0));

        let mut downstream = ParamStore::new();
        let a = downstream.register("a", Matrix::zeros(1, 2));
        downstream.register("b", Matrix::zeros(2, 3));

        let err = downstream.load_matching(&pretrained).unwrap_err();
        assert_eq!(
            err,
            ShapeMismatch {
                name: "b".into(),
                expected: (2, 3),
                found: (3, 2),
            }
        );
        assert_eq!(
            err.to_string(),
            r#"parameter "b" is 3x2, the model needs 2x3"#
        );
        assert_eq!(downstream.value(a), &Matrix::zeros(1, 2), "nothing copied");
    }

    #[test]
    fn ids_iterate_in_registration_order() {
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::zeros(1, 1));
        let b = store.register("b", Matrix::zeros(1, 1));
        let ids: Vec<_> = store.ids().collect();
        assert_eq!(ids, vec![a, b]);
    }
}
