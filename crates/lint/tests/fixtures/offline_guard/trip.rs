//! Tripping fixture: network and subprocess reach-outs, and a library
//! ending the process under its caller.

use std::net::TcpStream; // finding: std::net::TcpStream

pub fn spawn_helper() {
    let _ = std::process::Command::new("curl"); // finding: std::process::Command
}

pub fn dial() -> Option<TcpStream> {
    None
}

pub fn bail() -> ! {
    std::process::exit(1) // finding: std::process::exit
}
