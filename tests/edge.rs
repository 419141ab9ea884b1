//! End-to-end tests of the network edge (`frappe-net`) over real
//! sockets on an ephemeral loopback port:
//!
//! * every route answers, and HTTP-ingested events feed the same store
//!   HTTP classifies read from;
//! * verdicts served over the socket are **byte-identical** to
//!   in-process [`FrappeService::classify`], under concurrent clients;
//! * a model that panics on every score costs each classify a `500`
//!   with the pinned envelope body, never the edge: the connection and
//!   `/healthz` stay up, and swapping a good model back restores
//!   byte-identical verdicts;
//! * a connection over the accept gate's limit gets a `503` with a
//!   `Retry-After` header and the pinned `Overloaded` envelope, then is
//!   closed;
//! * a lifecycle hot-swap (promote, then rollback) fenced by the edge's
//!   drain protocol loses **zero** responses under mid-load traffic, and
//!   every response body is one of the known-good per-version strings —
//!   nothing stale, nothing garbled;
//! * the same world served at one and at three partitions answers every
//!   classify with identical body bytes;
//! * a hostile, deeply nested ingest body is a `400`, and the edge stays
//!   up.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use frappe::features::aggregation::{AggregationFeatures, KnownMaliciousNames};
use frappe::{AppFeatures, FeatureSet, FrappeModel, OnDemandFeatures};
use frappe_lifecycle::{
    DriftConfig, DriftDetector, LifecycleManager, ModelRegistry, ModelSource, PromotionGate,
    PromotionOutcome,
};
use frappe_net::{NetConfig, Server};
use frappe_serve::{serve_events, FrappeService, ServeConfig, ServeEvent};
use osn_types::ids::AppId;
use synth_workload::{run_scenario, ScenarioConfig};
use url_services::shortener::Shortener;

// ---------------------------------------------------------------- fixtures

fn prototypes() -> (AppFeatures, AppFeatures) {
    let benign = AppFeatures {
        app: AppId(1),
        on_demand: OnDemandFeatures {
            has_category: Some(true),
            has_company: Some(true),
            has_description: Some(true),
            has_profile_posts: Some(true),
            permission_count: Some(6),
            client_id_mismatch: Some(false),
            redirect_wot_score: Some(94.0),
        },
        aggregation: AggregationFeatures {
            name_matches_known_malicious: false,
            external_link_ratio: Some(0.0),
        },
    };
    let malicious = AppFeatures {
        app: AppId(2),
        on_demand: OnDemandFeatures {
            has_category: Some(false),
            has_company: Some(false),
            has_description: Some(false),
            has_profile_posts: Some(false),
            permission_count: Some(1),
            client_id_mismatch: Some(true),
            redirect_wot_score: Some(-1.0),
        },
        aggregation: AggregationFeatures {
            name_matches_known_malicious: true,
            external_link_ratio: Some(1.0),
        },
    };
    (benign, malicious)
}

fn tiny_model() -> FrappeModel {
    let (benign, malicious) = prototypes();
    let samples: Vec<AppFeatures> = (0..4).flat_map(|_| [benign, malicious]).collect();
    let labels: Vec<bool> = (0..4).flat_map(|_| [false, true]).collect();
    FrappeModel::train(&samples, &labels, FeatureSet::Full, None)
}

fn service_with(config: ServeConfig) -> FrappeService {
    FrappeService::new(
        tiny_model(),
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        config,
    )
}

/// Feeds one app's evidence; `shady` picks the malicious prototype and
/// `posts` varies the evidence volume so apps get distinct verdicts.
fn feed_app(service: &FrappeService, app: AppId, shady: bool, posts: usize) {
    let name = if shady {
        "Profile Viewer".to_string()
    } else {
        format!("wholesome game {}", app.raw())
    };
    service.ingest(&ServeEvent::Registered { app, name });
    let (benign, malicious) = prototypes();
    let features = if shady {
        malicious.on_demand
    } else {
        benign.on_demand
    };
    service.ingest(&ServeEvent::OnDemand { app, features });
    for i in 0..posts {
        let link = if shady {
            Some(osn_types::url::Url::parse("http://scam.example/x").unwrap())
        } else {
            (i % 2 == 0).then(|| osn_types::url::Url::parse("http://fine.example/y").unwrap())
        };
        service.ingest(&ServeEvent::Post { app, link });
    }
}

// ----------------------------------------------------- tiny blocking client

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response bodies are UTF-8")
    }
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the edge");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let _ = stream.set_nodelay(true);
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
    }

    fn read_response(&mut self) -> HttpResponse {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(head_len) = self
                .buf
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|i| i + 4)
            {
                let head = String::from_utf8(self.buf[..head_len - 4].to_vec()).unwrap();
                let mut lines = head.split("\r\n");
                let status_line = lines.next().unwrap();
                let status: u16 = status_line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("bad status line: {status_line}"));
                let headers: Vec<(String, String)> = lines
                    .filter_map(|l| l.split_once(':'))
                    .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
                    .collect();
                let content_length: usize = headers
                    .iter()
                    .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
                    .map(|(_, v)| v.parse().expect("numeric content-length"))
                    .unwrap_or(0);
                if self.buf.len() >= head_len + content_length {
                    let body = self.buf[head_len..head_len + content_length].to_vec();
                    self.buf.drain(..head_len + content_length);
                    return HttpResponse {
                        status,
                        headers,
                        body,
                    };
                }
            }
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> HttpResponse {
        self.send(method, path, body);
        self.read_response()
    }

    fn get(&mut self, path: &str) -> HttpResponse {
        self.request("GET", path, "")
    }
}

// ------------------------------------------------------------------- tests

#[test]
fn every_route_answers_and_http_ingest_feeds_http_classify() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr());

    let health = client.get("/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body_str(), r#"{"status":"ok"}"#);

    // ingest over HTTP: NDJSON of the real ServeEvent wire format
    let app = AppId(42);
    let events = [
        ServeEvent::Registered {
            app,
            name: "Profile Viewer".into(),
        },
        ServeEvent::OnDemand {
            app,
            features: prototypes().1.on_demand,
        },
        ServeEvent::Post {
            app,
            link: Some(osn_types::url::Url::parse("http://scam.example/z").unwrap()),
        },
    ];
    let ndjson: String = events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    let ingested = client.request("POST", "/v1/events", &ndjson);
    assert_eq!(ingested.status, 202);
    assert_eq!(ingested.body_str(), r#"{"ingested":3}"#);

    // the events just ingested answer a classify on the same connection
    let verdict = client.get("/v1/classify/app:42");
    assert_eq!(verdict.status, 200);
    let in_process = service.classify(app).unwrap();
    assert_eq!(
        verdict.body_str(),
        serde_json::to_string(&in_process).unwrap(),
        "HTTP body is byte-identical to the in-process verdict"
    );

    // unknown app: 404 with the pinned envelope
    let unknown = client.get("/v1/classify/999");
    assert_eq!(unknown.status, 404);
    assert_eq!(
        unknown.body_str(),
        r#"{"error":{"UnknownApp":999},"retry_after_ms":null}"#
    );

    // bad NDJSON is all-or-nothing: 400, nothing ingested
    let before = service.metrics().events_ingested;
    let bad = client.request(
        "POST",
        "/v1/events",
        "{\"Registered\":{\"app\":1,\"name\":\"x\"}}\nnot json\n",
    );
    assert_eq!(bad.status, 400);
    assert!(bad.body_str().contains("line 2"));
    assert_eq!(service.metrics().events_ingested, before, "nothing moved");

    // metrics scrape shows serve *and* edge counters in one text
    let metrics = client.get("/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body_str().contains("serve_events_ingested 3"));
    assert!(metrics.body_str().contains("net_conns_accepted 1"));
    assert!(metrics.body_str().contains("net_http_requests"));

    // routing edges
    assert_eq!(client.get("/nope").status, 404);
    assert_eq!(client.request("DELETE", "/healthz", "").status, 405);
    assert_eq!(client.get("/v1/classify/not-a-number").status, 400);

    // wrong HTTP version: 505 and the connection closes
    let mut old = Client::connect(server.local_addr());
    old.stream
        .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .unwrap();
    let response = old.read_response();
    assert_eq!(response.status, 505);
    assert_eq!(response.header("connection"), Some("close"));
}

#[test]
fn concurrent_socket_verdicts_are_byte_identical_to_in_process() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let apps: Vec<AppId> = (1..=8).map(AppId).collect();
    for (i, &app) in apps.iter().enumerate() {
        feed_app(&service, app, i % 2 == 0, 1 + i % 4);
    }
    let expected: Vec<String> = apps
        .iter()
        .map(|&app| serde_json::to_string(&service.classify(app).unwrap()).unwrap())
        .collect();

    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let expected = Arc::new(expected);
    let apps = Arc::new(apps);

    let clients: Vec<_> = (0..4)
        .map(|worker| {
            let (expected, apps) = (Arc::clone(&expected), Arc::clone(&apps));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for round in 0..20 {
                    for (i, app) in apps.iter().enumerate() {
                        // exercise both accepted id spellings
                        let path = if (round + i + worker) % 2 == 0 {
                            format!("/v1/classify/app:{}", app.raw())
                        } else {
                            format!("/v1/classify/{}", app.raw())
                        };
                        let response = client.get(&path);
                        assert_eq!(response.status, 200);
                        assert_eq!(
                            response.body_str(),
                            expected[i],
                            "socket verdict differs from in-process for {app:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
}

/// The pipelining guard serves at most `max_requests_per_wake` requests
/// per connection per pass. Complete requests it leaves buffered get no
/// fd edge of their own, so the edge must come back for them without the
/// client sending another byte — for plain routes and for classifies
/// answered from the verdict cache alike.
#[test]
fn pipelined_requests_beyond_the_guard_are_answered_in_one_round() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let app = AppId(5);
    feed_app(&service, app, true, 2);
    let expected = serde_json::to_string(&service.classify(app).unwrap()).unwrap();
    let misses = service.metrics().cache_misses;
    let config = NetConfig::default();
    let n = 2 * config.max_requests_per_wake + 1;
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let classify = format!("/v1/classify/{}", app.raw());
    for (path, body) in [("/healthz", r#"{"status":"ok"}"#), (&classify, &expected)] {
        let mut client = Client::connect(server.local_addr());
        let burst = format!("GET {path} HTTP/1.1\r\n\r\n").repeat(n);
        client.stream.write_all(burst.as_bytes()).unwrap();
        for i in 0..n {
            // a stranded request shows up as the read timing out here
            let response = client.read_response();
            assert_eq!(response.status, 200, "{path} #{i}");
            assert_eq!(response.body_str(), body, "{path} #{i}");
        }
    }
    assert_eq!(
        service.metrics().cache_misses,
        misses,
        "every pipelined classify was a cache hit"
    );
}

/// A client that pipelines past the guard and then half-closes still gets
/// every answer before the edge closes the connection.
#[test]
fn pipelined_requests_before_eof_are_all_answered() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let config = NetConfig::default();
    let n = 2 * config.max_requests_per_wake + 1;
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr());
    let burst = "GET /healthz HTTP/1.1\r\n\r\n".repeat(n);
    client.stream.write_all(burst.as_bytes()).unwrap();
    client.stream.shutdown(std::net::Shutdown::Write).unwrap();
    for i in 0..n {
        assert_eq!(client.read_response().status, 200, "#{i}");
    }
    let mut rest = Vec::new();
    client
        .stream
        .read_to_end(&mut rest)
        .expect("the edge closes");
    assert!(
        rest.is_empty() && client.buf.is_empty(),
        "nothing beyond the answers"
    );
}

/// `Connection: close` ends the connection after its own response: a
/// request pipelined behind it is never served (RFC 9112 §9.6).
#[test]
fn no_request_pipelined_after_connection_close_is_served() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr());
    client
        .stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
        )
        .unwrap();
    assert_eq!(client.read_response().status, 200);
    let mut rest = Vec::new();
    client
        .stream
        .read_to_end(&mut rest)
        .expect("the edge closes");
    assert!(
        rest.is_empty() && client.buf.is_empty(),
        "the second request got an answer"
    );
}

/// The same world behind a one-group and a three-group service: every
/// tracked app's socket verdict is byte-identical across the two shapes
/// and equal to the in-process verdict.
#[test]
fn verdict_bytes_are_identical_at_one_and_three_groups() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = KnownMaliciousNames::from_names(
        world
            .truth
            .malicious
            .iter()
            .filter_map(|&a| world.platform.app(a))
            .map(|r| r.name().to_string()),
    );
    let events = serve_events(&world);
    let deploy = |groups: usize| {
        let service = Arc::new(FrappeService::new(
            tiny_model(),
            known.clone(),
            world.shortener.clone(),
            ServeConfig {
                groups,
                ..ServeConfig::default()
            },
        ));
        for event in &events {
            service.ingest(event);
        }
        let server =
            Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
        (service, server)
    };
    let (single, single_edge) = deploy(1);
    let (grouped, grouped_edge) = deploy(3);
    let apps = single.tracked_apps();
    assert!(!apps.is_empty());
    assert_eq!(grouped.tracked_apps(), apps, "same apps on both shapes");
    let used: std::collections::BTreeSet<usize> =
        apps.iter().map(|&a| grouped.group_of(a)).collect();
    assert_eq!(used.len(), 3, "the world spans every group");

    let mut one = Client::connect(single_edge.local_addr());
    let mut three = Client::connect(grouped_edge.local_addr());
    for &app in &apps {
        let path = format!("/v1/classify/{}", app.raw());
        let (a, b) = (one.get(&path), three.get(&path));
        assert_eq!((a.status, b.status), (200, 200), "{app:?}");
        assert_eq!(
            a.body, b.body,
            "{app:?}: verdict bytes differ across shapes"
        );
        let in_process = serde_json::to_string(&single.classify(app).unwrap()).unwrap();
        assert_eq!(a.body_str(), in_process, "{app:?}: socket vs in-process");
    }
}

/// A body of nothing but `[` once overflowed the parser's stack and
/// aborted the whole process; now it is a 400, and the edge keeps
/// serving.
#[test]
fn deeply_nested_ingest_body_is_a_400_and_the_edge_stays_up() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut hostile = Client::connect(server.local_addr());
    let response = hostile.request("POST", "/v1/events", &"[".repeat(200_000));
    assert_eq!(response.status, 400);
    assert!(
        response
            .body_str()
            .starts_with(r#"{"error":"line 1: nesting deeper than 128"#),
        "{}",
        response.body_str()
    );
    assert_eq!(service.metrics().events_ingested, 0);

    let mut fresh = Client::connect(server.local_addr());
    let health = fresh.get("/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body_str(), r#"{"status":"ok"}"#);
}

/// A model whose SVM was fitted on another feature dimension: every
/// fresh score trips `svm`'s "feature dimension mismatch" assertion.
fn panicking_model() -> FrappeModel {
    let good = tiny_model();
    let wrong_dim = svm::SvmModel::new(svm::Kernel::linear(), vec![vec![0.5; 3]], vec![1.0], 0.0);
    FrappeModel::from_parts(
        FeatureSet::Full,
        good.imputation().clone(),
        good.scaler().clone(),
        wrong_dim,
    )
}

#[test]
fn a_scoring_panic_costs_one_request_never_the_edge() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let app = AppId(7);
    feed_app(&service, app, true, 2);
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr());

    service.swap_model(Arc::new(panicking_model()), 2);
    let failed = client.get("/v1/classify/7");
    assert_eq!(failed.status, 500);
    assert_eq!(
        failed.body_str(),
        r#"{"error":"Internal","retry_after_ms":null}"#
    );
    assert_eq!(service.metrics().rejected, 1);

    // the same connection, and a fresh one, are still served
    assert_eq!(client.get("/healthz").status, 200);
    let mut fresh = Client::connect(server.local_addr());
    assert_eq!(fresh.get("/healthz").status, 200);

    service.swap_model(Arc::new(tiny_model()), 3);
    let verdict = client.get("/v1/classify/7");
    assert_eq!(verdict.status, 200);
    let in_process = service.classify(app).unwrap();
    assert_eq!(in_process.model_version, 3);
    assert_eq!(
        verdict.body_str(),
        serde_json::to_string(&in_process).unwrap(),
        "the good model's verdict bytes are back"
    );
}

#[test]
fn saturated_accept_gate_answers_503_with_retry_after() {
    let service = Arc::new(service_with(ServeConfig {
        retry_after_ms: 9,
        ..ServeConfig::default()
    }));
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();

    // The only slot: a live connection that has been served once.
    let mut parked = Client::connect(server.local_addr());
    assert_eq!(parked.get("/healthz").status, 200);

    // A second connection is over the gate: answered without ever
    // sending a request, then closed.
    let mut shed = Client::connect(server.local_addr());
    let response = shed.read_response();
    assert_eq!(response.status, 503);
    assert_eq!(
        response.header("retry-after"),
        Some("1"),
        "9ms rounds up to the 1-second header floor"
    );
    assert_eq!(
        response.body_str(),
        r#"{"error":{"Overloaded":{"retry_after_ms":9}},"retry_after_ms":9}"#
    );
    let mut rest = Vec::new();
    shed.stream
        .read_to_end(&mut rest)
        .expect("the gate closes the connection");
    assert!(rest.is_empty(), "nothing follows the 503");

    let metrics = parked.get("/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body_str().contains("net_conns_rejected 1"),
        "{}",
        metrics.body_str()
    );
}

#[test]
fn fenced_hot_swap_under_load_drops_and_stales_nothing() {
    // Registry-backed service: promotions swap the model the edge serves.
    let incumbent = tiny_model();
    let candidate = Arc::new(tiny_model()); // identical weights, new version
    let registry = ModelRegistry::new(incumbent, ModelSource::default());
    let service = Arc::new(FrappeService::with_shared_model(
        registry.handle(),
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        ServeConfig::default(),
    ));
    let apps: Vec<AppId> = (1..=6).map(AppId).collect();
    for (i, &app) in apps.iter().enumerate() {
        feed_app(&service, app, i % 2 == 0, 1 + i % 3);
    }

    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let manager = LifecycleManager::new(
        Arc::clone(&service),
        registry,
        PromotionGate {
            min_scored: 100,
            ..PromotionGate::default()
        },
        DriftDetector::new(DriftConfig::default()),
    );
    // THE point of this test: the edge's drain protocol fences the swap
    manager.set_swap_fence(Arc::new(server.handle()));

    // shadow the candidate and let it earn its promotion on live queries
    manager.begin_shadow(Arc::clone(&candidate), ModelSource::default());
    for i in 0..120 {
        let app = apps[i % apps.len()];
        let label = i % 2 == 0; // matches feed_app's shady pattern
        manager.classify_labelled(app, Some(label)).unwrap();
    }

    // known-good response bodies for the incumbent (version 1)
    let v1: Vec<String> = apps
        .iter()
        .map(|&app| serde_json::to_string(&service.classify(app).unwrap()).unwrap())
        .collect();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 240;
    let progress = Arc::new(AtomicUsize::new(0));
    let apps = Arc::new(apps);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (progress, apps) = (Arc::clone(&progress), Arc::clone(&apps));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut bodies = Vec::with_capacity(REQUESTS);
                for i in 0..REQUESTS {
                    let app = apps[i % apps.len()];
                    let response = client.get(&format!("/v1/classify/{}", app.raw()));
                    assert_eq!(response.status, 200, "{}", response.body_str());
                    bodies.push((i % apps.len(), response.body_str().to_string()));
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                bodies
            })
        })
        .collect();

    let wait_until = |count: usize| {
        while progress.load(Ordering::Relaxed) < count {
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // promote mid-load (drain → swap → resume), grab version-2 bodies,
    // then roll back mid-load too
    wait_until(CLIENTS * REQUESTS / 4);
    let outcome = manager.try_promote();
    assert_eq!(outcome, PromotionOutcome::Promoted(2));
    let v2: Vec<String> = apps
        .iter()
        .map(|&app| serde_json::to_string(&service.classify(app).unwrap()).unwrap())
        .collect();
    wait_until(CLIENTS * REQUESTS / 2);
    assert_eq!(manager.rollback().unwrap(), 1);

    for client in clients {
        let bodies = client.join().expect("client thread");
        assert_eq!(bodies.len(), REQUESTS, "zero dropped responses");
        for (app_idx, body) in bodies {
            assert!(
                body == v1[app_idx] || body == v2[app_idx],
                "response is neither version's known-good body (stale or \
                 garbled): {body}"
            );
        }
    }

    // every verdict after the dust settles matches in-process exactly
    let mut client = Client::connect(addr);
    for (i, &app) in apps.iter().enumerate() {
        let response = client.get(&format!("/v1/classify/{}", app.raw()));
        assert_eq!(response.body_str(), v1[i], "post-rollback parity");
    }

    let snapshot = service.obs_registry().snapshot().to_prometheus_text();
    assert!(snapshot.contains("net_drains 2"), "{snapshot}");
    assert!(snapshot.contains("lifecycle_promotions 1"));
    assert!(snapshot.contains("lifecycle_rollbacks 1"));
    let metrics = service.metrics();
    assert_eq!(metrics.model_swaps, 2);
}
