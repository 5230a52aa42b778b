"""Shared helpers for the per-figure jobs (spark-submit entrypoints)."""
from __future__ import annotations

import argparse
import os
import sys

# allow running as `python jobs/figX.py` from the repo root without install
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)


def get_spark(app: str):
    # Spark's Python workers do not inherit sys.path
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def std_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--quick", action="store_true", help="reduced scale")
    p.add_argument("--time-limit", type=float, default=120.0,
                   help="per-engine time cap in seconds (paper: 4h)")
    return p
