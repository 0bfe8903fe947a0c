//! The system under test, assembled in-process from the crates' public
//! constructors on ephemeral loopback ports.

use std::net::SocketAddr;
use std::sync::Arc;

use ccsa_fleet::{Fleet, FleetConfig, ReplicaConfig, SpawnedFleet};
use ccsa_gateway::{Gateway, GatewayConfig, Router, SpawnedGateway};
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pipeline::TrainedModel;
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::TreeLstmConfig;
use ccsa_serve::{BatchConfig, ServeConfig, ServeEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's best encoder (3-layer alternating, d = 100, λ = 120) with
/// seeded, untrained weights: the kernel shapes are the real ones and speed
/// does not depend on what the weights have learned.
pub fn model(seed: u64) -> TrainedModel {
    let config = EncoderConfig::TreeLstm(TreeLstmConfig::paper());
    let mut params = Params::new();
    let comparator = Comparator::new(
        &config,
        &mut params,
        &mut StdRng::seed_from_u64(seed ^ 0x0de1),
    );
    TrainedModel { comparator, params }
}

pub fn engine(model: &TrainedModel, cache_capacity: usize) -> Arc<ServeEngine> {
    Arc::new(ServeEngine::with_model(
        model.clone(),
        &ServeConfig {
            cache_capacity,
            batch: BatchConfig {
                workers: crate::ENCODE_WORKERS,
                max_batch: crate::MAX_BATCH,
                ..BatchConfig::default()
            },
            ..ServeConfig::default()
        },
    ))
}

/// Which socket the clients talk to.
#[derive(Debug, Clone, Copy)]
pub enum Door {
    Http(SocketAddr),
    Tcp(SocketAddr),
}

/// One gateway per engine, optionally behind a fleet front tier.
pub struct Rig {
    pub engines: Vec<Arc<ServeEngine>>,
    gateways: Vec<SpawnedGateway>,
    fleet: Option<SpawnedFleet>,
}

impl Rig {
    pub fn spawn(engines: Vec<Arc<ServeEngine>>, fleet: bool) -> Rig {
        let gateways: Vec<_> = engines
            .iter()
            .map(|engine| {
                Gateway::spawn(
                    Arc::clone(engine),
                    Router::single_default(),
                    GatewayConfig {
                        http_addr: Some("127.0.0.1:0".to_string()),
                        ..GatewayConfig::default()
                    },
                )
                .expect("gateway binds an ephemeral loopback port")
            })
            .collect();
        let fleet = fleet.then(|| {
            let replicas = gateways
                .iter()
                .enumerate()
                .map(|(i, g)| ReplicaConfig {
                    id: format!("gw-{i}"),
                    addr: g.addr(),
                    http_addr: g.http_addr().expect("http front door configured"),
                })
                .collect();
            Fleet::spawn(replicas, FleetConfig::default())
                .expect("fleet binds an ephemeral loopback port")
        });
        Rig {
            engines,
            gateways,
            fleet,
        }
    }

    pub fn http(&self) -> Door {
        Door::Http(
            self.gateways[0]
                .http_addr()
                .expect("http front door configured"),
        )
    }

    pub fn tcp(&self) -> Door {
        Door::Tcp(self.gateways[0].addr())
    }

    pub fn fleet_addr(&self) -> Option<SocketAddr> {
        self.fleet.as_ref().map(|f| f.addr())
    }

    pub fn fleet(&self) -> Door {
        Door::Tcp(self.fleet_addr().expect("rig has a fleet"))
    }

    pub fn gateway_addrs(&self) -> Vec<SocketAddr> {
        self.gateways.iter().map(|g| g.addr()).collect()
    }

    /// Drains front to back and joins every accept loop and session.
    pub fn shutdown(self) {
        if let Some(fleet) = self.fleet {
            fleet.shutdown_and_join().expect("fleet drains");
        }
        for gateway in self.gateways {
            gateway.shutdown_and_join().expect("gateway drains");
        }
    }
}
