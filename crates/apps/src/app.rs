//! The application abstraction: Table I unit tests and the client
//! workload, uniformly over Broadleaf and Shopizer.

use crate::broadleaf::Broadleaf;
use crate::ctx::AppCtx;
use crate::fixtures::Fixes;
use crate::locks::AppLocks;
use crate::shopizer::Shopizer;
use weseer_concolic::{shared, take_ctx, ExecMode, LibraryMode, SymValue, Trace};
use weseer_db::Database;
use weseer_orm::OrmError;
use weseer_sqlir::{Catalog, Value};

/// Per-client state threaded through a workload iteration.
#[derive(Debug, Clone)]
pub struct ClientState {
    /// Client (thread) number.
    pub client_id: usize,
    /// Iteration counter.
    pub iter: u64,
    /// Customer id returned by Register, used by the later APIs.
    pub user_id: Option<SymValue>,
    /// First product of this iteration.
    pub product_a: i64,
    /// Second product of this iteration.
    pub product_b: i64,
}

impl ClientState {
    /// Fresh state for a client.
    pub fn new(client_id: usize) -> Self {
        ClientState {
            client_id,
            iter: 0,
            user_id: None,
            product_a: 1,
            product_b: 2,
        }
    }

    /// Advance to the next iteration, repicking products from the hot set
    /// with a deterministic mix (no RNG needed for contention).
    pub fn next_iteration(&mut self, hot_products: i64) {
        self.iter += 1;
        let mix = |x: u64| -> u64 {
            let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^ (h >> 32)
        };
        let seed = mix(self.iter.wrapping_add((self.client_id as u64) << 32));
        self.product_a = 1 + (seed % hot_products as u64) as i64;
        self.product_b = 1 + ((seed >> 8) % hot_products as u64) as i64;
        if self.product_b == self.product_a {
            self.product_b = 1 + (self.product_b % hot_products);
            if self.product_b == self.product_a {
                self.product_b = 1 + (self.product_a % hot_products);
            }
        }
        self.user_id = None;
    }

    fn user(&self) -> Result<SymValue, OrmError> {
        self.user_id
            .clone()
            .ok_or_else(|| OrmError::AppAbort("client has no registered user".into()))
    }
}

/// A simulated e-commerce application.
pub trait ECommerceApp: Sync {
    /// Application name (`"broadleaf"` / `"shopizer"`).
    fn name(&self) -> &'static str;
    /// Schema.
    fn catalog(&self) -> Catalog;
    /// Seed catalog data.
    fn seed(&self, db: &Database);
    /// Table I unit tests, in the paper's chaining order.
    fn unit_tests(&self) -> &'static [&'static str];
    /// Run one unit test with canonical inputs marked symbolic.
    fn run_unit_test(&self, ctx: &mut AppCtx<'_>, test: &str) -> Result<(), OrmError>;
    /// Run one API call of the client workload with concrete inputs.
    fn run_client_api(
        &self,
        ctx: &mut AppCtx<'_>,
        api: &str,
        client: &mut ClientState,
    ) -> Result<(), OrmError>;
}

impl ECommerceApp for Broadleaf {
    fn name(&self) -> &'static str {
        "broadleaf"
    }

    fn catalog(&self) -> Catalog {
        Broadleaf::catalog()
    }

    fn seed(&self, db: &Database) {
        Broadleaf::seed(db);
    }

    fn unit_tests(&self) -> &'static [&'static str] {
        &[
            "Register", "Add1", "Add2", "Add3", "Ship", "Payment", "Checkout",
        ]
    }

    fn run_unit_test(&self, ctx: &mut AppCtx<'_>, test: &str) -> Result<(), OrmError> {
        let s =
            |name: &str, v: Value| -> SymValue { ctx.engine.borrow_mut().make_symbolic(name, v) };
        match test {
            "Register" => {
                let username = s("username", Value::str("alice"));
                let email = s("email", Value::str("alice@example.com"));
                let password = s("password", Value::str("hunter2"));
                let confirm = s("password_confirm", Value::str("hunter2"));
                self.register(ctx, username, email, password, confirm)
                    .map(|_| ())
            }
            "Add1" | "Add2" | "Add3" => {
                let (pid, qty) = match test {
                    "Add1" => (1, 1),
                    "Add2" => (2, 2),
                    _ => (1, 1),
                };
                let user = s("user_id", Value::Int(1));
                let product = s("product_id", Value::Int(pid));
                let qty = s("qty", Value::Int(qty));
                self.add_to_cart(ctx, user, product, qty)
            }
            "Ship" => {
                let user = s("user_id", Value::Int(1));
                let city = s("city", Value::str("NYC"));
                let street = s("street", Value::str("5th Ave"));
                let fee = s("shipping_fee", Value::Float(5.0));
                self.ship(ctx, user, city, street, fee)
            }
            "Payment" => {
                let user = s("user_id", Value::Int(1));
                let method = s("payment_method", Value::str("VISA"));
                let amount = s("amount", Value::Float(55.0));
                self.payment(ctx, user, method, amount)
            }
            "Checkout" => {
                let user = s("user_id", Value::Int(1));
                self.checkout(ctx, user)
            }
            other => panic!("unknown Broadleaf unit test {other:?}"),
        }
    }

    fn run_client_api(
        &self,
        ctx: &mut AppCtx<'_>,
        api: &str,
        client: &mut ClientState,
    ) -> Result<(), OrmError> {
        match api {
            "Register" => {
                let name = format!("bl-u{}-{}", client.client_id, client.iter);
                let id = self.register(
                    ctx,
                    name.as_str().into(),
                    "x@example.com".into(),
                    "pw".into(),
                    "pw".into(),
                )?;
                client.user_id = Some(id);
                Ok(())
            }
            "Add1" => self.add_to_cart(ctx, client.user()?, client.product_a.into(), 1i64.into()),
            "Add2" => self.add_to_cart(ctx, client.user()?, client.product_b.into(), 2i64.into()),
            "Add3" => self.add_to_cart(ctx, client.user()?, client.product_a.into(), 1i64.into()),
            "Ship" => self.ship(
                ctx,
                client.user()?,
                "NYC".into(),
                "5th Ave".into(),
                Value::Float(5.0).into(),
            ),
            "Payment" => self.payment(
                ctx,
                client.user()?,
                "VISA".into(),
                Value::Float(55.0).into(),
            ),
            "Checkout" => self.checkout(ctx, client.user()?),
            other => panic!("unknown Broadleaf API {other:?}"),
        }
    }
}

impl ECommerceApp for Shopizer {
    fn name(&self) -> &'static str {
        "shopizer"
    }

    fn catalog(&self) -> Catalog {
        Shopizer::catalog()
    }

    fn seed(&self, db: &Database) {
        Shopizer::seed(db);
    }

    fn unit_tests(&self) -> &'static [&'static str] {
        &["Register", "Add1", "Add2", "Add3", "Ship", "Checkout"]
    }

    fn run_unit_test(&self, ctx: &mut AppCtx<'_>, test: &str) -> Result<(), OrmError> {
        let s =
            |name: &str, v: Value| -> SymValue { ctx.engine.borrow_mut().make_symbolic(name, v) };
        match test {
            "Register" => {
                let username = s("username", Value::str("bob"));
                let email = s("email", Value::str("bob@example.com"));
                let password = s("password", Value::str("hunter2"));
                let confirm = s("password_confirm", Value::str("hunter2"));
                self.register(ctx, username, email, password, confirm)
                    .map(|_| ())
            }
            "Add1" | "Add2" | "Add3" => {
                let (pid, qty) = match test {
                    "Add1" => (3, 1),
                    "Add2" => (7, 2),
                    _ => (3, 5),
                };
                let user = s("user_id", Value::Int(1));
                let product = s("product_id", Value::Int(pid));
                let qty = s("qty", Value::Int(qty));
                self.add_to_cart(ctx, user, product, qty)
            }
            "Ship" => {
                let user = s("user_id", Value::Int(1));
                let city = s("city", Value::str("Paris"));
                self.ship(ctx, user, city)
            }
            "Checkout" => {
                let user = s("user_id", Value::Int(1));
                self.checkout(ctx, user)
            }
            other => panic!("unknown Shopizer unit test {other:?}"),
        }
    }

    fn run_client_api(
        &self,
        ctx: &mut AppCtx<'_>,
        api: &str,
        client: &mut ClientState,
    ) -> Result<(), OrmError> {
        match api {
            "Register" => {
                let name = format!("sz-u{}-{}", client.client_id, client.iter);
                let id = self.register(
                    ctx,
                    name.as_str().into(),
                    "x@example.com".into(),
                    "pw".into(),
                    "pw".into(),
                )?;
                client.user_id = Some(id);
                Ok(())
            }
            "Add1" => self.add_to_cart(ctx, client.user()?, client.product_a.into(), 1i64.into()),
            "Add2" => self.add_to_cart(ctx, client.user()?, client.product_b.into(), 2i64.into()),
            "Add3" => self.add_to_cart(ctx, client.user()?, client.product_a.into(), 1i64.into()),
            "Ship" => self.ship(ctx, client.user()?, "Paris".into()),
            "Checkout" => self.checkout(ctx, client.user()?),
            other => panic!("unknown Shopizer API {other:?}"),
        }
    }
}

/// The unit-test chain (paper Sec. VII-B): seed a fresh database, then
/// hand each of `app.unit_tests()`, in order, to `step` together with the
/// database, which carries the state every earlier step left. `step` runs
/// the test (usually through [`collect_trace`]). The chain stops before
/// `stop_before` when that names a unit test, and returns the database.
pub fn run_chain(
    app: &dyn ECommerceApp,
    stop_before: Option<&str>,
    mut step: impl FnMut(&str, &Database),
) -> Database {
    let db = Database::new(app.catalog());
    app.seed(&db);
    for test in app.unit_tests() {
        if stop_before == Some(*test) {
            break;
        }
        step(test, &db);
    }
    db
}

/// Run one unit test under the given execution mode and return its trace
/// plus the term context (the analyzer input), and the API outcome.
///
/// Unit tests are chained ([`run_chain`]): the database carries the state
/// left by earlier tests (the paper runs them sequentially for exactly
/// this reason).
pub fn collect_trace(
    app: &dyn ECommerceApp,
    test: &str,
    db: &Database,
    fixes: &Fixes,
    locks: &AppLocks,
    mode: ExecMode,
    lib_mode: LibraryMode,
) -> (Trace, weseer_smt::Ctx, Result<(), OrmError>) {
    let engine = shared(mode);
    {
        let mut e = engine.borrow_mut();
        e.set_library_mode(lib_mode);
        e.start_concolic();
    }
    let mut ctx = AppCtx::new(db, engine.clone(), fixes, locks);
    let result = app.run_unit_test(&mut ctx, test);
    let trace = ctx.session.driver_mut().take_trace(test);
    drop(ctx);
    let term_ctx = take_ctx(&engine);
    (trace, term_ctx, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_state_products_differ() {
        let mut c = ClientState::new(3);
        for _ in 0..50 {
            c.next_iteration(10);
            assert_ne!(c.product_a, c.product_b);
            assert!((1..=10).contains(&c.product_a));
            assert!((1..=10).contains(&c.product_b));
        }
    }

    /// Trace `app`'s whole chain concolically; the statement count of
    /// each trace, and the final database.
    fn traced_chain(app: &dyn ECommerceApp) -> (Vec<usize>, Database) {
        let fixes = Fixes::none();
        let locks = AppLocks::new();
        let mut statements = Vec::new();
        let db = run_chain(app, None, |test, db| {
            let (trace, _ctx, result) = collect_trace(
                app,
                test,
                db,
                &fixes,
                &locks,
                ExecMode::Concolic,
                LibraryMode::Modeled,
            );
            result.unwrap_or_else(|e| panic!("unit test {test} failed: {e}"));
            assert!(trace.txns.iter().any(|t| t.committed), "{test}");
            statements.push(trace.statements.len());
        });
        (statements, db)
    }

    #[test]
    fn broadleaf_unit_tests_chain_and_trace() {
        let (statements, db) = traced_chain(&Broadleaf);
        assert_eq!(statements.len(), 7);
        assert!(statements.iter().all(|&n| n > 0), "{statements:?}");
        let total: usize = statements.iter().sum();
        assert!(total >= 20, "expected a substantial trace, got {total}");
        // State chained: the full flow left an order behind.
        assert_eq!(db.count("Orders"), 1);
    }

    #[test]
    fn shopizer_unit_tests_chain_and_trace() {
        let (statements, db) = traced_chain(&Shopizer);
        assert_eq!(statements.len(), 6);
        assert!(statements.iter().all(|&n| n > 0), "{statements:?}");
        assert_eq!(db.count("Orders"), 1);
    }

    #[test]
    fn traces_capture_symbolic_inputs_and_path_conditions() {
        let app = Broadleaf;
        let db = Database::new(app.catalog());
        app.seed(&db);
        let fixes = Fixes::none();
        let locks = AppLocks::new();
        let (trace, ctx, r) = collect_trace(
            &app,
            "Register",
            &db,
            &fixes,
            &locks,
            ExecMode::Concolic,
            LibraryMode::Modeled,
        );
        r.unwrap();
        // The password confirmation branch became a path condition.
        assert!(!trace.path_conds.is_empty());
        // The INSERT's parameters carry symbolic input expressions.
        let ins = trace
            .statements
            .iter()
            .find(|s| s.stmt.kind() == "INSERT")
            .expect("register inserts");
        assert!(ins.params.iter().any(|p| p.is_symbolic()));
        // The generated customer id is tagged unique.
        assert_eq!(trace.unique_ids.len(), 1);
        assert!(!ctx.is_empty());
    }
}
