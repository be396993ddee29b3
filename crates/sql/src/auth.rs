//! Users, passwords, and per-database grants (§4.1.5).
//!
//! The paper's point: access-control state lives *outside* the data, so
//! backup tools routinely miss it and cloned replicas refuse logins. Our
//! dump format makes principals optional (off by default, like typical ETL
//! tools) precisely to reproduce that failure mode.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ast::Privilege;
use crate::error::SqlError;

#[derive(Debug, Clone, PartialEq)]
pub struct User {
    /// Shared: every connection of the user holds a clone of it.
    pub name: Arc<str>,
    pub password: String,
    /// database name -> privilege.
    pub grants: BTreeMap<String, Privilege>,
}

/// The principal registry of one engine.
#[derive(Debug, Clone)]
pub struct AuthRegistry {
    users: BTreeMap<String, User>,
}

/// Name of the bootstrap superuser present in every fresh engine.
pub const ADMIN_USER: &str = "admin";
/// Bootstrap superuser password.
pub const ADMIN_PASSWORD: &str = "admin";

impl AuthRegistry {
    pub fn new() -> Self {
        let mut users = BTreeMap::new();
        users.insert(
            ADMIN_USER.to_string(),
            User {
                name: ADMIN_USER.into(),
                password: ADMIN_PASSWORD.to_string(),
                grants: BTreeMap::new(),
            },
        );
        AuthRegistry { users }
    }

    pub fn create_user(&mut self, name: &str, password: &str) -> Result<(), SqlError> {
        if self.users.contains_key(name) {
            return Err(SqlError::AlreadyExists(format!("user {name}")));
        }
        self.users.insert(
            name.to_string(),
            User { name: name.into(), password: password.to_string(), grants: BTreeMap::new() },
        );
        Ok(())
    }

    pub fn drop_user(&mut self, name: &str) -> Result<(), SqlError> {
        if name == ADMIN_USER {
            return Err(SqlError::AccessDenied("cannot drop the bootstrap superuser".into()));
        }
        self.users
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SqlError::AccessDenied(format!("unknown user {name}")))
    }

    pub fn grant(&mut self, user: &str, database: &str, privilege: Privilege) -> Result<(), SqlError> {
        let u = self
            .users
            .get_mut(user)
            .ok_or_else(|| SqlError::AccessDenied(format!("unknown user {user}")))?;
        u.grants.insert(database.to_string(), privilege);
        Ok(())
    }

    /// Verify credentials; returns the canonical user name.
    pub fn authenticate(&self, user: &str, password: &str) -> Result<Arc<str>, SqlError> {
        match self.users.get(user) {
            Some(u) if u.password == password => Ok(u.name.clone()),
            _ => Err(SqlError::AccessDenied(format!("authentication failed for {user}"))),
        }
    }

    /// Check that `user` may perform `needed` on `database`. The superuser
    /// may do anything.
    pub fn check(&self, user: &str, database: &str, needed: Privilege) -> Result<(), SqlError> {
        if user == ADMIN_USER {
            return Ok(());
        }
        let u = self
            .users
            .get(user)
            .ok_or_else(|| SqlError::AccessDenied(format!("unknown user {user}")))?;
        let held = u.grants.get(database).copied();
        let ok = matches!(
            (held, needed),
            (Some(Privilege::All), _)
                | (Some(Privilege::Read), Privilege::Read)
                | (Some(Privilege::Write), Privilege::Write)
                | (Some(Privilege::Write), Privilege::Read)
        );
        if ok {
            Ok(())
        } else {
            Err(SqlError::AccessDenied(format!(
                "user {user} lacks {needed} on {database}"
            )))
        }
    }

    pub fn users(&self) -> impl Iterator<Item = &User> {
        self.users.values()
    }

    /// Replace all non-admin principals with the given set (restore path).
    pub fn restore_users(&mut self, users: Vec<User>) {
        self.users.retain(|name, _| name == ADMIN_USER);
        for u in users {
            if &*u.name != ADMIN_USER {
                self.users.insert(u.name.to_string(), u);
            }
        }
    }
}

impl Default for AuthRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authentication() {
        let mut a = AuthRegistry::new();
        a.create_user("alice", "pw").unwrap();
        assert!(a.authenticate("alice", "pw").is_ok());
        assert!(a.authenticate("alice", "wrong").is_err());
        assert!(a.authenticate("nobody", "pw").is_err());
        assert!(a.authenticate(ADMIN_USER, ADMIN_PASSWORD).is_ok());
    }

    #[test]
    fn privilege_lattice() {
        let mut a = AuthRegistry::new();
        a.create_user("bob", "pw").unwrap();
        a.grant("bob", "shop", Privilege::Read).unwrap();
        assert!(a.check("bob", "shop", Privilege::Read).is_ok());
        assert!(a.check("bob", "shop", Privilege::Write).is_err());
        a.grant("bob", "shop", Privilege::Write).unwrap();
        assert!(a.check("bob", "shop", Privilege::Read).is_ok(), "write implies read");
        assert!(a.check("bob", "other", Privilege::Read).is_err());
    }

    #[test]
    fn restore_drops_stale_users() {
        let mut a = AuthRegistry::new();
        a.create_user("stale", "pw").unwrap();
        a.restore_users(vec![User {
            name: "fresh".into(),
            password: "pw".into(),
            grants: BTreeMap::new(),
        }]);
        assert!(a.authenticate("stale", "pw").is_err());
        assert!(a.authenticate("fresh", "pw").is_ok());
        assert!(a.authenticate(ADMIN_USER, ADMIN_PASSWORD).is_ok());
    }

    #[test]
    fn admin_cannot_be_dropped() {
        let mut a = AuthRegistry::new();
        assert!(a.drop_user(ADMIN_USER).is_err());
    }
}
