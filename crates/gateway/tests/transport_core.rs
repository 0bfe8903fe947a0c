//! The transport core's own promises, driven through its public API with
//! no gateway or fleet around it: a session that panics gives its slot
//! back, and flipping the stop predicate ends the accept loop and every
//! idle session promptly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ccsa_gateway::transport::{
    accept_loop, refuse_line, serve_lines, After, Budget, POLL_INTERVAL,
};

/// An echo door: every admitted connection answers each line with
/// itself, except that the first `panics` sessions panic instead.
struct EchoDoor {
    listener: TcpListener,
    budget: Budget,
    accepting: AtomicBool,
    stop: AtomicBool,
    panics: AtomicUsize,
}

impl EchoDoor {
    fn bind(max_connections: usize, panics: usize) -> (EchoDoor, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let door = EchoDoor {
            listener,
            budget: Budget::new(max_connections),
            accepting: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            panics: AtomicUsize::new(panics),
        };
        (door, addr)
    }

    fn run(&self) {
        let stop = || self.stop.load(Ordering::SeqCst);
        accept_loop(
            &self.listener,
            "echo-",
            &self.budget,
            &self.accepting,
            stop,
            |stream, cap| refuse_line(stream, "echo door", cap),
            |stream, _peer| {
                let panic_now = self
                    .panics
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
                assert!(!panic_now, "this session's handler panics (on purpose)");
                serve_lines(stream, &stop, None, |line| {
                    (line.trim_end().to_string(), After::KeepGoing)
                });
            },
        )
        .expect("accept loop");
    }
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    BufReader::new(stream)
}

fn echo(client: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(client.get_mut(), "{line}").expect("write");
    let mut reply = String::new();
    client.read_line(&mut reply).expect("read");
    reply.trim_end().to_string()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_panicking_session_handler_releases_its_slot() {
    let (door, addr) = EchoDoor::bind(1, 1);
    std::thread::scope(|scope| {
        let running = scope.spawn(|| door.run());

        // Connection 1 is admitted, panics, and is closed by the unwind.
        let mut first = connect(addr);
        let mut rest = Vec::new();
        assert_eq!(first.read_to_end(&mut rest).expect("eof"), 0);
        wait_until("the panicked session's slot", || door.budget.active() == 0);

        // With a cap of one, connection 2 is admitted only because the
        // slot came back.
        let mut second = connect(addr);
        assert_eq!(echo(&mut second, "still serving"), "still serving");
        assert_eq!((door.budget.accepted(), door.budget.rejected()), (2, 0));

        drop(second);
        door.stop.store(true, Ordering::SeqCst);
        // The loop collected the panic itself; it does not resurface here.
        running.join().expect("accept loop thread");
    });
}

#[test]
fn flipping_the_stop_predicate_joins_idle_sessions_promptly() {
    const SESSIONS: usize = 8;
    let (door, addr) = EchoDoor::bind(SESSIONS, 0);
    std::thread::scope(|scope| {
        let running = scope.spawn(|| door.run());

        // One round trip each, so every session is known to be up and
        // parked in its keep-alive read.
        let mut clients: Vec<_> = (0..SESSIONS).map(|_| connect(addr)).collect();
        for (ix, client) in clients.iter_mut().enumerate() {
            assert_eq!(echo(client, &format!("hello {ix}")), format!("hello {ix}"));
        }
        assert_eq!(door.budget.active(), SESSIONS);

        let flipped = Instant::now();
        door.stop.store(true, Ordering::SeqCst);
        running.join().expect("accept loop thread");
        let took = flipped.elapsed();
        assert!(
            took < 20 * POLL_INTERVAL,
            "accept_loop took {took:?} to join {SESSIONS} idle sessions"
        );
        assert_eq!(door.budget.active(), 0);
        // The clients never hung up: the server side closed on them.
        for client in &mut clients {
            let mut rest = Vec::new();
            assert_eq!(client.read_to_end(&mut rest).expect("eof"), 0);
        }
    });
}
