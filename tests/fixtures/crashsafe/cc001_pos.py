"""CC001 firing: raw durability syscalls outside repro/durable.py,
including ones reached through import aliases."""
import os
import tempfile
from os import replace as move_into_place


def rewrite_state(path, data):
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(directory, path, data):
    fd, tmp = tempfile.mkstemp(dir=directory)
    os.close(fd)
    move_into_place(tmp, path)
