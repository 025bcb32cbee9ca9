"""CC001 non-firing: durable writes go through repro.durable; plain
reads, closes and unlinks are not durability syscalls."""
import os

from repro.durable import AppendLog, atomic_publish, exclusive_create


def append_record(path, record):
    AppendLog(path).append(record)


def create_claim(path, data):
    return exclusive_create(path, data)


def publish(path, data):
    return atomic_publish(path, data)


def read_and_drop(path):
    with open(path, "rb") as fh:
        data = fh.read()
    os.unlink(path)
    return data
