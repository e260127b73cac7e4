//! Authorization, SSO and entry-guard behaviour end-to-end (paper §V-A,
//! §III-C).

use feisu_common::{FeisuError, SimDuration, UserId};
use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_storage::auth::Grant;
use feisu_tests::{clicks_rows, clicks_schema, fixture};

fn cluster_with_table() -> (FeisuCluster, UserId) {
    cluster_with_table_on(ClusterSpec::small())
}

fn cluster_with_table_on(spec: ClusterSpec) -> (FeisuCluster, UserId) {
    let cluster = FeisuCluster::new(spec).unwrap();
    let admin = cluster.register_user("admin");
    cluster.grant_all(admin);
    let admin_cred = cluster.login(admin).unwrap();
    cluster
        .create_table(
            "clicks",
            clicks_schema(),
            "/hdfs/warehouse/clicks",
            &admin_cred,
        )
        .unwrap();
    cluster
        .ingest_rows("clicks", clicks_rows(100), &admin_cred)
        .unwrap();
    (cluster, admin)
}

#[test]
fn user_without_grant_cannot_read() {
    let (cluster, _) = cluster_with_table();
    let intern = cluster.register_user("intern");
    let cred = cluster.login(intern).unwrap();
    let err = cluster
        .query("SELECT COUNT(*) FROM clicks", &cred)
        .unwrap_err();
    assert!(matches!(err, FeisuError::PermissionDenied(_)), "{err}");
}

#[test]
fn read_grant_allows_query_but_not_ingest() {
    let (cluster, _) = cluster_with_table();
    let analyst = cluster.register_user("analyst");
    cluster.grant(analyst, "hdfs", Grant::Read).unwrap();
    let cred = cluster.login(analyst).unwrap();
    assert!(cluster.query("SELECT COUNT(*) FROM clicks", &cred).is_ok());
    let err = cluster
        .ingest_rows("clicks", clicks_rows(5), &cred)
        .unwrap_err();
    assert!(matches!(err, FeisuError::PermissionDenied(_)), "{err}");
}

#[test]
fn expired_credential_rejected_mid_session() {
    let (cluster, admin) = cluster_with_table();
    let cred = cluster.login(admin).unwrap();
    assert!(cluster.query("SELECT COUNT(*) FROM clicks", &cred).is_ok());
    cluster.advance_time(SimDuration::hours(9)); // past the 8 h validity
    let err = cluster
        .query("SELECT COUNT(*) FROM clicks", &cred)
        .unwrap_err();
    assert!(matches!(err, FeisuError::Unauthenticated(_)), "{err}");
    // A fresh login restores service.
    let fresh = cluster.login(admin).unwrap();
    assert!(cluster.query("SELECT COUNT(*) FROM clicks", &fresh).is_ok());
}

#[test]
fn revoked_user_locked_out_despite_valid_token() {
    let (cluster, _) = cluster_with_table();
    let leaver = cluster.register_user("leaver");
    cluster.grant(leaver, "hdfs", Grant::Read).unwrap();
    let cred = cluster.login(leaver).unwrap();
    assert!(cluster.query("SELECT COUNT(*) FROM clicks", &cred).is_ok());
    cluster.auth().revoke_user(leaver);
    let err = cluster
        .query("SELECT COUNT(*) FROM clicks", &cred)
        .unwrap_err();
    assert!(matches!(err, FeisuError::Unauthenticated(_)), "{err}");
}

/// A zone-map skip decided from a resident footer reads nothing — and is
/// still no way around `auth.authorize`: with every block's footer
/// resident and every block disproved, a user without the read grant and
/// a user with an expired token get the errors they get on a cold
/// cluster.
#[test]
fn resident_footer_skips_still_need_the_grant_and_a_live_token() {
    // Ingested clicks are below 100: every block is skipped.
    let sql = "SELECT COUNT(*) FROM clicks WHERE clicks > 5000";
    let refusals = |warm: bool| {
        // No task reuse: the repeat has to go back to the leaves.
        let mut spec = ClusterSpec::small();
        spec.task_reuse = false;
        let (cluster, admin) = cluster_with_table_on(spec);
        let admin_cred = cluster.login(admin).unwrap();
        if warm {
            cluster.query(sql, &admin_cred).unwrap();
            let again = cluster.query(sql, &admin_cred).unwrap();
            assert!(again.stats.tasks > 0);
            assert_eq!(again.stats.memory_served_tasks, again.stats.tasks);
        }
        let intern = cluster.register_user("intern");
        let no_grant = cluster
            .query(sql, &cluster.login(intern).unwrap())
            .unwrap_err();
        cluster.advance_time(SimDuration::hours(9)); // past the 8 h validity
        let expired = cluster.query(sql, &admin_cred).unwrap_err();
        (no_grant, expired)
    };
    let (no_grant, expired) = refusals(true);
    assert!(
        matches!(no_grant, FeisuError::PermissionDenied(_)),
        "{no_grant}"
    );
    assert!(
        matches!(expired, FeisuError::Unauthenticated(_)),
        "{expired}"
    );
    let cold = refusals(false);
    assert_eq!(no_grant.to_string(), cold.0.to_string());
    assert_eq!(expired.to_string(), cold.1.to_string());
}

#[test]
fn syntax_errors_rejected_before_admission() {
    let fx = fixture(50);
    let err = fx
        .cluster
        .query("SELEKT url FROM clicks", &fx.cred)
        .unwrap_err();
    assert!(matches!(err, FeisuError::Parse(_)), "{err}");
    // A parse failure must not consume quota.
    let now = fx.cluster.now();
    assert_eq!(fx.cluster.guard().admitted_today(fx.user, now), 0);
}

#[test]
fn unknown_table_is_analysis_error() {
    let fx = fixture(50);
    let err = fx
        .cluster
        .query("SELECT x FROM ghost", &fx.cred)
        .unwrap_err();
    assert!(matches!(err, FeisuError::Analysis(_)), "{err}");
}

#[test]
fn guard_blocks_oversized_statements() {
    let fx = fixture(50);
    let huge = format!(
        "SELECT url FROM clicks WHERE url CONTAINS '{}'",
        "x".repeat(100_000)
    );
    let err = fx.cluster.query(&huge, &fx.cred).unwrap_err();
    assert!(matches!(err, FeisuError::PermissionDenied(_)), "{err}");
}

#[test]
fn jobs_are_recorded_per_user() {
    let fx = fixture(60);
    fx.cluster
        .query("SELECT COUNT(*) FROM clicks", &fx.cred)
        .unwrap();
    fx.cluster
        .query("SELECT url FROM clicks WHERE clicks > 5", &fx.cred)
        .unwrap();
    // The query log is the per-user job record (and the user's
    // personalization history).
    let user = fx.user.to_string();
    let logged = fx.cluster.query_log().snapshot();
    let jobs: Vec<_> = logged.iter().filter(|e| e.user == user).collect();
    assert_eq!(jobs.len(), 2);
    assert!(jobs
        .iter()
        .all(|j| j.outcome == feisu_core::event_log::QueryOutcome::Completed));
}
