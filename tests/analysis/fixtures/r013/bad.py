"""R013 fail direction: file and socket lifetimes with leaky paths."""

import socket


def read_config(path):
    fh = open(path)  # finding: fh.read() raising leaks the handle
    data = fh.read()
    fh.close()
    return data


def probe(host):
    sock = socket.create_connection((host, 9000))  # finding: never closed
    sock.sendall(b"ping")
    return sock.recv(4)


def loop_release(paths):
    fh = open(paths[0])  # finding: the loop may run no iteration
    for _ in paths:
        fh.close()
