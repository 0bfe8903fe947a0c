//! Parameter storage and per-tape parameter binding.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use ccsa_tensor::{Gradients, Tape, Tensor, Var};

/// A named, ordered collection of model parameters.
///
/// Ordering is deterministic (insertion order), which keeps optimizer state
/// and serialisation stable across runs.
#[derive(Debug, Clone, Default)]
pub struct Params {
    names: Vec<String>,
    tensors: Vec<Tensor>,
    index: HashMap<String, usize>,
}

impl Params {
    /// An empty parameter store.
    pub fn new() -> Params {
        Params::default()
    }

    /// Registers a new parameter.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken — layer constructors must use
    /// unique prefixes.
    pub fn insert(&mut self, name: impl Into<String>, tensor: Tensor) {
        let name = name.into();
        assert!(
            !self.index.contains_key(&name),
            "duplicate parameter name '{name}'"
        );
        self.index.insert(name.clone(), self.tensors.len());
        self.names.push(name);
        self.tensors.push(tensor);
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar weights.
    pub fn scalar_count(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Looks a parameter up by name.
    ///
    /// # Panics
    ///
    /// Panics if the parameter does not exist (a construction bug, not a
    /// runtime condition).
    pub fn get(&self, name: &str) -> &Tensor {
        let ix = self.ix(name);
        &self.tensors[ix]
    }

    /// Mutable access by name (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if the parameter does not exist.
    pub fn get_mut(&mut self, name: &str) -> &mut Tensor {
        let ix = self.ix(name);
        &mut self.tensors[ix]
    }

    fn ix(&self, name: &str) -> usize {
        *self
            .index
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter '{name}'"))
    }

    /// Iterates `(name, tensor)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.tensors.iter())
    }

    /// Parameter names in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Applies `f` to every tensor (used by optimizers).
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&str, &mut Tensor)) {
        for (name, t) in self.names.iter().zip(self.tensors.iter_mut()) {
            f(name, t);
        }
    }
}

/// Accumulated gradients keyed by parameter name. An ordered map:
/// [`GradStore::global_norm`] sums in iteration order, and a hash map's
/// differs from one store to the next, which made a clipped step — and
/// so a whole training run — differ in last ulps between identical runs.
#[derive(Debug, Clone, Default)]
pub struct GradStore {
    grads: BTreeMap<String, Tensor>,
}

impl GradStore {
    /// An empty store.
    pub fn new() -> GradStore {
        GradStore::default()
    }

    /// Adds `delta` into the slot for `name`.
    pub fn accumulate(&mut self, name: &str, delta: &Tensor) {
        match self.grads.get_mut(name) {
            Some(g) => g.axpy(1.0, delta),
            None => {
                self.grads.insert(name.to_string(), delta.clone());
            }
        }
    }

    /// Merges another store into this one (summing shared slots).
    pub fn merge(&mut self, other: GradStore) {
        for (name, g) in other.grads {
            self.accumulate(&name, &g);
        }
    }

    /// Scales every gradient by `s` (e.g. `1 / batch_size`).
    pub fn scale(&mut self, s: f32) {
        for g in self.grads.values_mut() {
            *g = g.scale(s);
        }
    }

    /// The gradient for `name`, if any was recorded.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.grads.get(name)
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// `true` when no gradients were recorded.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .values()
            .map(|g| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }
}

/// Binds a [`Params`] store to one [`Tape`], creating at most one leaf
/// [`Var`] per parameter so gradient extraction is unambiguous.
///
/// The tape lifetime `'t` and parameter-store lifetime `'p` are distinct
/// so a short-lived tape can borrow long-lived parameters.
pub struct Ctx<'t, 'p> {
    /// The underlying tape (exposed for non-parameter leaves).
    pub tape: &'t Tape,
    params: &'p Params,
    bound: RefCell<Vec<Option<Var<'t>>>>,
}

impl<'t, 'p> Ctx<'t, 'p> {
    /// Creates a binding context for a forward pass.
    pub fn new(tape: &'t Tape, params: &'p Params) -> Ctx<'t, 'p> {
        Ctx {
            tape,
            params,
            bound: RefCell::new(vec![None; params.len()]),
        }
    }

    /// Creates a context whose parameters are *pre-bound* to the given
    /// variables, in registration order. Used by gradient-checking tests
    /// that need analytic gradients to flow to externally created leaves.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len()` differs from the parameter count.
    pub fn with_bound(tape: &'t Tape, params: &'p Params, vars: &[Var<'t>]) -> Ctx<'t, 'p> {
        assert_eq!(vars.len(), params.len(), "one var per parameter required");
        Ctx {
            tape,
            params,
            bound: RefCell::new(vars.iter().copied().map(Some).collect()),
        }
    }

    /// The leaf variable for parameter `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if the parameter does not exist.
    pub fn param(&self, name: &str) -> Var<'t> {
        let ix = self.params.ix(name);
        if let Some(var) = self.bound.borrow()[ix] {
            return var;
        }
        let var = self.tape.leaf(self.params.tensors[ix].clone());
        self.bound.borrow_mut()[ix] = Some(var);
        var
    }

    /// Extracts parameter gradients from a backward pass into a
    /// [`GradStore`]. Parameters never bound on this tape are skipped.
    pub fn grads(&self, gradients: &Gradients) -> GradStore {
        let mut store = GradStore::new();
        for (ix, slot) in self.bound.borrow().iter().enumerate() {
            if let Some(var) = slot {
                if gradients.contains(*var) {
                    store.accumulate(&self.params.names[ix], &gradients.get(*var));
                }
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Params::new();
        p.insert("w", Tensor::ones([2, 2]));
        p.insert("b", Tensor::zeros([2]));
        assert_eq!(p.len(), 2);
        assert_eq!(p.scalar_count(), 6);
        assert_eq!(p.get("b").len(), 2);
        assert_eq!(p.names().collect::<Vec<_>>(), vec!["w", "b"]);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_name_panics() {
        let mut p = Params::new();
        p.insert("w", Tensor::ones([1]));
        p.insert("w", Tensor::ones([1]));
    }

    #[test]
    fn ctx_binds_each_param_once() {
        let mut p = Params::new();
        p.insert("w", Tensor::from_vec(vec![2.0], [1]));
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &p);
        let a = ctx.param("w");
        let b = ctx.param("w");
        assert_eq!(a.id(), b.id(), "same leaf for repeated binds");
        // loss = w * w → dw = 2w = 4.
        let loss = a.mul(b).sum();
        let grads = tape.backward(loss);
        let store = ctx.grads(&grads);
        assert_eq!(store.get("w").unwrap().as_slice(), &[4.0]);
    }

    #[test]
    fn grad_store_merge_and_scale() {
        let mut a = GradStore::new();
        a.accumulate("w", &Tensor::from_vec(vec![1.0, 2.0], [2]));
        let mut b = GradStore::new();
        b.accumulate("w", &Tensor::from_vec(vec![3.0, 4.0], [2]));
        b.accumulate("v", &Tensor::from_vec(vec![1.0], [1]));
        a.merge(b);
        a.scale(0.5);
        assert_eq!(a.get("w").unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.get("v").unwrap().as_slice(), &[0.5]);
    }

    #[test]
    fn global_norm() {
        let mut g = GradStore::new();
        g.accumulate("a", &Tensor::from_vec(vec![3.0], [1]));
        g.accumulate("b", &Tensor::from_vec(vec![4.0], [1]));
        assert!((g.global_norm() - 5.0).abs() < 1e-6);
    }
}
